module Simtime = Engine.Simtime
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Socket = Netsim.Socket
module Filter = Netsim.Filter
module Ipaddr = Netsim.Ipaddr
module Event_server = Httpsim.Event_server
module Sclient = Workload.Sclient

type variant = Without_containers | Containers_select | Containers_event_api

let variant_name = function
  | Without_containers -> "Without containers"
  | Containers_select -> "With containers/select()"
  | Containers_event_api -> "With containers/new event API"

let high_src = Ipaddr.v 10 9 9 9
let low_base = Ipaddr.v 10 1 0 1

let t_high ?(warmup = Simtime.sec 2) ?(measure = Simtime.sec 4) variant ~low_clients =
  let system =
    match variant with
    | Without_containers -> Harness.Unmodified
    | Containers_select | Containers_event_api -> Harness.Rc_sys
  in
  let rig = Harness.make_rig system in
  let listens, policy, user_preference =
    match variant with
    | Without_containers ->
        (* One listen socket; the app can only prefer the high client in
           user space, by source address. *)
        let listen =
          Socket.make_unbound_listen ~port:Harness.default_port ~backlog:32
            (Container.run rig.Harness.root)
        in
        ( [ listen ],
          Event_server.No_containers,
          fun conn -> if Ipaddr.equal conn.Socket.src high_src then 1 else 0 )
    | Containers_select | Containers_event_api ->
        let high_container =
          Container.create ~parent:rig.Harness.root ~name:"high-class"
            ~attrs:(Attrs.timeshare ~priority:100 ())
            ()
        and low_container =
          Container.create ~parent:rig.Harness.root ~name:"low-class"
            ~attrs:(Attrs.timeshare ~priority:10 ())
            ()
        in
        let listen_high =
          Socket.make_listen ~port:Harness.default_port ~filter:(Filter.host high_src)
            ~backlog:32 ~container:high_container ()
        and listen_low =
          Socket.make_listen ~port:Harness.default_port ~backlog:32 ~container:low_container ()
        in
        ([ listen_high; listen_low ], Event_server.Inherit_listen, fun _ -> 0)
  in
  let api =
    match variant with
    | Containers_event_api -> Event_server.Event_api
    | Without_containers | Containers_select -> Event_server.Select
  in
  let server =
    Event_server.create ~stack:rig.Harness.stack ~process:rig.Harness.server_proc
      ~cache:rig.Harness.cache ~api ~policy ~user_preference ~listens ()
  in
  ignore (Event_server.start server);
  let jitter = Simtime.ms 2 in
  let high =
    Sclient.create ~stack:rig.Harness.stack ~name:"high" ~src_base:high_src
      ~port:Harness.default_port ~path:Harness.doc_path ~jitter ~seed:7 ~count:1 ()
  in
  let low =
    if low_clients > 0 then
      Some
        (Sclient.create ~stack:rig.Harness.stack ~name:"low" ~src_base:low_base
           ~port:Harness.default_port ~path:Harness.doc_path ~jitter ~seed:11
           ~count:low_clients ())
    else None
  in
  Sclient.start high;
  (match low with Some l -> Sclient.start l | None -> ());
  Harness.run_for rig warmup;
  Sclient.reset_stats high;
  Harness.run_for rig measure;
  Engine.Stats.Summary.mean (Sclient.response_times high)

let variants = [ Without_containers; Containers_select; Containers_event_api ]

let figure ?(low_counts = [ 0; 5; 10; 15; 20; 25; 30; 35 ]) ?warmup ?measure ?(jobs = 1) () =
  (* Every (variant, count) point is an independent simulation; flatten
     them into one array so [Sweep.map] can fan the whole grid out. *)
  let points =
    Array.of_list
      (List.concat_map (fun v -> List.map (fun n -> (v, n)) low_counts) variants)
  in
  let ys =
    Harness.Sweep.map ~jobs
      (fun (v, n) -> t_high ?warmup ?measure v ~low_clients:n)
      points
  in
  let per_variant = List.length low_counts in
  let curve_of i variant =
    let curve = Engine.Series.curve (variant_name variant) in
    List.iteri
      (fun k n ->
        Engine.Series.add_point curve ~x:(float_of_int n) ~y:ys.((i * per_variant) + k))
      low_counts;
    curve
  in
  Engine.Series.figure ~title:"Figure 11: T_high vs concurrent low-priority clients"
    ~x_label:"low-priority clients" ~y_label:"high-priority response time (ms)"
    (List.mapi curve_of variants)
