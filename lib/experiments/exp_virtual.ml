module Simtime = Engine.Simtime
module Attrs = Rescont.Attrs

type guest_result = {
  name : string;
  allocated_share : float;
  measured_share : float;
  static_throughput : float;
  cgi_share_within_guest : float;
}

(* Each guest's CPU share; 16 static clients per guest saturate all three.
   A guest is a top-level fixed-share container holding its whole
   allocation, which it re-divides: half for CGI at most.  Its server
   process runs under it with its own network kernel thread (paper §5.1:
   "a per-process kernel thread") and serves its own port. *)
let shares = [ 0.5; 0.3; 0.2 ]
let guest i = Printf.sprintf "guest-%d" (i + 1)

let scenario =
  let guests = List.mapi (fun i share -> (i, guest i, share)) shares in
  {
    Scenario.base with
    containers =
      List.concat_map
        (fun (_, g, share) ->
          [
            { Scenario.name = g; parent = None; attrs = Attrs.fixed_share ~share () };
            {
              name = g ^ "-cgi";
              parent = Some g;
              attrs = Attrs.fixed_share ~share:0.5 ~cpu_limit:0.5 ();
            };
          ])
        guests;
    servers =
      List.map
        (fun (i, g, _) ->
          {
            Scenario.server with
            host = Some g;
            port = 8001 + i;
            listens = [ { Scenario.listen with bind = Own } ];
            policy = Inherit_listen;
            cgi = Cgi_under (g ^ "-cgi");
          })
        guests;
    groups =
      List.concat_map
        (fun (i, g, _) ->
          [
            {
              Scenario.group with
              name = g ^ "-static";
              src_base = Netsim.Ipaddr.v 10 (30 + i) 0 1;
              port = 8001 + i;
              count = 16;
            };
            {
              Scenario.group with
              name = g ^ "-cgi";
              src_base = Netsim.Ipaddr.v 10 (40 + i) 0 1;
              port = 8001 + i;
              docs = Path Harness.cgi_path;
              syn_timeout = Simtime.sec 60;
              count = 2;
            };
          ])
        guests;
    warmup = Simtime.sec 5;
    windows = [ Simtime.sec 15 ];
  }

let run (s : Scenario.t) =
  let w = Scenario.window (Scenario.run s) in
  List.filter_map
    (fun (c : Scenario.container) ->
      match c.attrs.Attrs.sched_class with
      | Attrs.Fixed_share share when c.parent = None ->
          let guest_cpu = (Scenario.usage_of w c.name).cpu in
          let cgi_cpu = (Scenario.usage_of w (c.name ^ "-cgi")).cpu in
          Some
            {
              name = c.name;
              allocated_share = share;
              measured_share = Simtime.ratio guest_cpu w.span;
              static_throughput = Scenario.throughput w (c.name ^ "-static");
              cgi_share_within_guest =
                Simtime.ratio cgi_cpu (Simtime.span_max guest_cpu (Simtime.ns 1));
            }
      | _ -> None)
    s.containers

let table () =
  let results = run scenario in
  let t =
    Engine.Series.table ~title:"§5.8: isolation of virtual servers (guest CPU vs allocation)"
      ~columns:
        [ "guest"; "allocated CPU share"; "measured CPU share"; "static req/s";
          "CGI share within guest" ]
  in
  List.iter
    (fun r ->
      Engine.Series.add_row t
        [
          r.name;
          Printf.sprintf "%.1f%%" (100. *. r.allocated_share);
          Printf.sprintf "%.1f%%" (100. *. r.measured_share);
          Printf.sprintf "%.0f" r.static_throughput;
          Printf.sprintf "%.1f%%" (100. *. r.cgi_share_within_guest);
        ])
    results;
  t
