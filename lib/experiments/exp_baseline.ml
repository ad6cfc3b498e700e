module Simtime = Engine.Simtime

type result = {
  persistent : bool;
  throughput : float;
  cpu_per_request_us : float;
}

let scenario ~persistent =
  {
    Scenario.base with
    system = Harness.Unmodified;
    groups = [ { Scenario.group with persistent; count = 32 } ];
  }

let run (s : Scenario.t) =
  let w = Scenario.window (Scenario.run s) in
  let requests = (Scenario.stats w "clients").completed in
  let busy = List.fold_left Simtime.span_add Simtime.span_zero w.busy in
  {
    persistent = (List.hd s.groups).persistent;
    throughput = Scenario.throughput w "clients";
    cpu_per_request_us =
      (if requests = 0 then 0. else Simtime.span_to_us_f busy /. float_of_int requests);
  }

let table ~measure =
  let t =
    Engine.Series.table ~title:"Baseline throughput (paper §5.3, unmodified kernel, 1KB cached)"
      ~columns:
        [ "connection mode"; "throughput (req/s)"; "paper (req/s)"; "CPU/request (us)";
          "paper (us)" ]
  in
  let row persistent =
    let r = run { (scenario ~persistent) with windows = [ measure ] } in
    Engine.Series.add_row t
      [
        (if r.persistent then "persistent (HTTP/1.1)" else "connection per request");
        Printf.sprintf "%.0f" r.throughput;
        (if r.persistent then "9487" else "2954");
        Printf.sprintf "%.1f" r.cpu_per_request_us;
        (if r.persistent then "105" else "338");
      ]
  in
  row false;
  row true;
  t
