module Simtime = Engine.Simtime
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Socket = Netsim.Socket
module Event_server = Httpsim.Event_server
module Cgi = Httpsim.Cgi
module Sclient = Workload.Sclient

type variant = Unmod | Lrp | Rc_capped of float

let variant_name = function
  | Unmod -> "Unmodified System"
  | Lrp -> "LRP System"
  | Rc_capped f -> Printf.sprintf "RC System (%.0f%% cap)" (f *. 100.)

type point = { static_throughput : float; cgi_cpu_share : float }

let run ?(static_clients = 24) ?(warmup = Simtime.sec 5) ?(measure = Simtime.sec 15) variant
    ~concurrent_cgi =
  let system =
    match variant with
    | Unmod -> Harness.Unmodified
    | Lrp -> Harness.Lrp_sys
    | Rc_capped _ -> Harness.Rc_sys
  in
  let rig = Harness.make_rig system in
  let cgi_parent =
    match variant with
    | Rc_capped cap ->
        Some
          (Container.create ~parent:rig.Harness.root ~name:"cgi-parent"
             ~attrs:(Attrs.fixed_share ~share:cap ~cpu_limit:cap ())
             ())
    | Unmod | Lrp -> None
  in
  let cgi =
    Cgi.create ~stack:rig.Harness.stack ~server_process:rig.Harness.server_proc ?cgi_parent ()
  in
  let listen =
    Socket.make_unbound_listen ~port:Harness.default_port (Container.run rig.Harness.root)
  in
  let server =
    Event_server.create ~stack:rig.Harness.stack ~process:rig.Harness.server_proc
      ~cache:rig.Harness.cache ~api:Event_server.Select
      ~dynamic_handler:(Cgi.handler cgi) ~listens:[ listen ] ()
  in
  ignore (Event_server.start server);
  let static =
    Sclient.create ~stack:rig.Harness.stack ~name:"static" ~port:Harness.default_port
      ~path:Harness.doc_path ~count:static_clients ()
  in
  Sclient.start static;
  (if concurrent_cgi > 0 then
     let cgi_clients =
       Sclient.create ~stack:rig.Harness.stack ~name:"cgi-clients"
         ~src_base:(Netsim.Ipaddr.v 10 2 0 1) ~port:Harness.default_port
         ~path:Harness.cgi_path
         ~syn_timeout:(Simtime.sec 60) (* a CGI response takes many seconds *)
         ~count:concurrent_cgi ()
     in
     Sclient.start cgi_clients);
  Harness.run_for rig warmup;
  Sclient.reset_stats static;
  let cgi_cpu0 = Cgi.cpu_charged cgi in
  Harness.run_for rig measure;
  let static_throughput =
    float_of_int (Sclient.completed static) /. Simtime.span_to_sec_f measure
  in
  let cgi_cpu = Simtime.span_sub (Cgi.cpu_charged cgi) cgi_cpu0 in
  { static_throughput; cgi_cpu_share = Simtime.ratio cgi_cpu measure }

let variants = [ Unmod; Lrp; Rc_capped 0.30; Rc_capped 0.10 ]

let figures ?(cgi_counts = [ 0; 1; 2; 3; 4; 5 ]) ?warmup ?measure ?(jobs = 1) () =
  let tput_curves = List.map (fun v -> (v, Engine.Series.curve (variant_name v))) variants in
  let share_curves = List.map (fun v -> (v, Engine.Series.curve (variant_name v))) variants in
  let points =
    Array.of_list (List.concat_map (fun v -> List.map (fun n -> (v, n)) cgi_counts) variants)
  in
  let results =
    Harness.Sweep.map ~jobs (fun (v, n) -> run ?warmup ?measure v ~concurrent_cgi:n) points
  in
  Array.iteri
    (fun i (v, n) ->
      let p = results.(i) in
      let x = float_of_int n in
      Engine.Series.add_point (List.assoc v tput_curves) ~x ~y:p.static_throughput;
      Engine.Series.add_point (List.assoc v share_curves) ~x ~y:(100. *. p.cgi_cpu_share))
    points;
  ( Engine.Series.figure ~title:"Figure 12: static throughput with competing CGI requests"
      ~x_label:"concurrent CGI requests" ~y_label:"HTTP throughput (requests/sec)"
      (List.map snd tput_curves),
    Engine.Series.figure ~title:"Figure 13: CPU share of CGI processing"
      ~x_label:"concurrent CGI requests" ~y_label:"CPU share of CGI (%)"
      (List.map snd share_curves) )
