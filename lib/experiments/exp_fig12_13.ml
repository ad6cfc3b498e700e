module Simtime = Engine.Simtime
module Attrs = Rescont.Attrs

type variant = Unmod | Lrp | Rc_capped of float

let variant_name = function
  | Unmod -> "Unmodified System"
  | Lrp -> "LRP System"
  | Rc_capped f -> Printf.sprintf "RC System (%.0f%% cap)" (f *. 100.)

type point = { static_throughput : float; cgi_cpu_share : float }

let scenario variant ~concurrent_cgi =
  let static = { Scenario.group with name = "static"; count = 24 } in
  let cgi_clients =
    {
      Scenario.group with
      name = "cgi-clients";
      src_base = Netsim.Ipaddr.v 10 2 0 1;
      docs = Path Harness.cgi_path;
      syn_timeout = Simtime.sec 60 (* a CGI response takes many seconds *);
      count = concurrent_cgi;
    }
  in
  let system, containers, cgi =
    match variant with
    | Unmod -> (Harness.Unmodified, [], Scenario.Cgi)
    | Lrp -> (Harness.Lrp_sys, [], Scenario.Cgi)
    | Rc_capped cap ->
        ( Harness.Rc_sys,
          [
            {
              Scenario.name = "cgi-parent";
              parent = None;
              attrs = Attrs.fixed_share ~share:cap ~cpu_limit:cap ();
            };
          ],
          Scenario.Cgi_under "cgi-parent" )
  in
  {
    Scenario.base with
    system;
    containers;
    servers = [ { Scenario.server with cgi } ];
    groups = (if concurrent_cgi > 0 then [ static; cgi_clients ] else [ static ]);
    warmup = Simtime.sec 5;
    windows = [ Simtime.sec 15 ];
  }

let run s =
  let w = Scenario.window (Scenario.run s) in
  {
    static_throughput = Scenario.throughput w "static";
    cgi_cpu_share = Simtime.ratio w.cgi_cpu w.span;
  }

let variants = [ Unmod; Lrp; Rc_capped 0.30; Rc_capped 0.10 ]

let figures ~cgi_counts ~measure ~jobs =
  let grid =
    Harness.Sweep.grid ~jobs
      (fun v n ->
        run { (scenario v ~concurrent_cgi:n) with windows = [ measure ] })
      variants cgi_counts
  in
  let curves y =
    List.map
      (fun (v, points) ->
        Engine.Series.curve_of_points (variant_name v)
          (List.map (fun (n, p) -> (float_of_int n, y p)) points))
      grid
  in
  ( Engine.Series.figure ~title:"Figure 12: static throughput with competing CGI requests"
      ~x_label:"concurrent CGI requests" ~y_label:"HTTP throughput (requests/sec)"
      (curves (fun p -> p.static_throughput)),
    Engine.Series.figure ~title:"Figure 13: CPU share of CGI processing"
      ~x_label:"concurrent CGI requests" ~y_label:"CPU share of CGI (%)"
      (curves (fun p -> 100. *. p.cgi_cpu_share)) )
