type result = {
  without_containers : float;
  with_containers : float;
  relative_change : float;
}

(* The listen socket carries the server's container so that accepting new
   connections keeps its normal precedence relative to serving existing
   ones (paper §4.8). *)
let scenario =
  {
    Scenario.base with
    servers = [ { Scenario.server with listens = [ { Scenario.listen with bind = Own } ] } ];
    groups = [ { Scenario.group with count = 48 } ];
  }

let throughput s = Scenario.throughput (Scenario.window (Scenario.run s)) "clients"

let run (s : Scenario.t) =
  let per_connection (sv : Scenario.server) =
    { sv with policy = Per_connection { lo = 10; hi = 10; seed = 0 } }
  in
  let without_containers = throughput s in
  let with_containers = throughput { s with servers = List.map per_connection s.servers } in
  {
    without_containers;
    with_containers;
    relative_change = (with_containers -. without_containers) /. without_containers;
  }

let table () =
  let r = run scenario in
  let t =
    Engine.Series.table
      ~title:"§5.4: overhead of a per-request resource container (RC kernel)"
      ~columns:[ "configuration"; "throughput (req/s)"; "relative" ]
  in
  Engine.Series.add_row t
    [ "no per-request containers"; Printf.sprintf "%.0f" r.without_containers; "100%" ];
  Engine.Series.add_row t
    [
      "container per request";
      Printf.sprintf "%.0f" r.with_containers;
      Printf.sprintf "%+.2f%%" (100. *. r.relative_change);
    ];
  t
