module Simtime = Engine.Simtime
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Socket = Netsim.Socket
module Filter = Netsim.Filter
module Ipaddr = Netsim.Ipaddr
module Event_server = Httpsim.Event_server
module Sclient = Workload.Sclient
module Synflood = Workload.Synflood

type variant = Unmod_flood | Lrp_flood | Rc_filtered

let variant_name = function
  | Unmod_flood -> "Unmodified System"
  | Lrp_flood -> "LRP System"
  | Rc_filtered -> "With Resource Containers"

let flood_base = Ipaddr.v 192 168 66 0

let throughput ?(good_clients = 24) ?(warmup = Simtime.sec 2) ?(measure = Simtime.sec 5)
    variant ~syn_rate =
  let system =
    match variant with
    | Unmod_flood -> Harness.Unmodified
    | Lrp_flood -> Harness.Lrp_sys
    | Rc_filtered -> Harness.Rc_sys
  in
  let rig = Harness.make_rig system in
  let listens =
    match variant with
    | Unmod_flood | Lrp_flood ->
        (* LRP has no source-address filtering (§5.7): one shared listen
           socket, flood and legitimate traffic in the same queue. *)
        [ Socket.make_unbound_listen ~port:Harness.default_port (Container.run rig.Harness.root) ]
    | Rc_filtered ->
        (* The filter mechanism of §4.8: a listen socket covering the
           attacker's prefix, bound to a priority-0 container. *)
        let main_container =
          Container.create ~parent:rig.Harness.root ~name:"service"
            ~attrs:(Attrs.timeshare ~priority:10 ())
            ()
        and flood_container =
          Container.create ~parent:rig.Harness.root ~name:"attackers"
            ~attrs:(Attrs.timeshare ~priority:0 ())
            ()
        in
        [
          Socket.make_listen ~port:Harness.default_port
            ~filter:(Filter.prefix ~template:flood_base ~bits:24)
            ~container:flood_container ~syn_backlog:64 ();
          Socket.make_listen ~port:Harness.default_port ~container:main_container ();
        ]
  in
  let server =
    Event_server.create ~stack:rig.Harness.stack ~process:rig.Harness.server_proc
      ~cache:rig.Harness.cache ~api:Event_server.Select
      ~policy:
        (match variant with
        | Unmod_flood | Lrp_flood -> Event_server.No_containers
        | Rc_filtered -> Event_server.Inherit_listen)
      ~listens ()
  in
  ignore (Event_server.start server);
  let good =
    Sclient.create ~stack:rig.Harness.stack ~name:"good" ~port:Harness.default_port
      ~path:Harness.doc_path ~count:good_clients ()
  in
  Sclient.start good;
  (if syn_rate > 0. then begin
     let flood =
       Synflood.create ~stack:rig.Harness.stack ~src_base:(Ipaddr.offset flood_base 1)
         ~src_count:254 ~port:Harness.default_port ~rate_per_sec:syn_rate ()
     in
     Synflood.start flood
   end);
  Harness.run_for rig warmup;
  Sclient.reset_stats good;
  Harness.run_for rig measure;
  float_of_int (Sclient.completed good) /. Simtime.span_to_sec_f measure

let variants = [ Rc_filtered; Lrp_flood; Unmod_flood ]

let figure ?(rates = [ 0.; 10_000.; 20_000.; 30_000.; 40_000.; 50_000.; 60_000.; 70_000. ])
    ?warmup ?measure ?(jobs = 1) () =
  let points =
    Array.of_list (List.concat_map (fun v -> List.map (fun r -> (v, r)) rates) variants)
  in
  let ys =
    Harness.Sweep.map ~jobs
      (fun (v, rate) -> throughput ?warmup ?measure v ~syn_rate:rate)
      points
  in
  let per_variant = List.length rates in
  let curve_of i variant =
    let curve = Engine.Series.curve (variant_name variant) in
    List.iteri
      (fun k rate ->
        Engine.Series.add_point curve ~x:(rate /. 1000.) ~y:ys.((i * per_variant) + k))
      rates;
    curve
  in
  Engine.Series.figure ~title:"Figure 14: server behavior under SYN-flood attack"
    ~x_label:"SYN-flood rate (1000s of SYNs/sec)" ~y_label:"HTTP throughput (requests/sec)"
    (List.mapi curve_of variants)
