module Simtime = Engine.Simtime
module Attrs = Rescont.Attrs
module Ipaddr = Netsim.Ipaddr
module Event_server = Httpsim.Event_server

type variant = Without_containers | Containers_select | Containers_event_api

let variant_name = function
  | Without_containers -> "Without containers"
  | Containers_select -> "With containers/select()"
  | Containers_event_api -> "With containers/new event API"

let high_src = Ipaddr.v 10 9 9 9

let scenario variant ~low_clients =
  let listen = { Scenario.listen with backlog = 32 } in
  let server =
    match variant with
    | Without_containers ->
        (* One listen socket; the app can only prefer the high client in
           user space, by source address. *)
        { Scenario.server with listens = [ listen ]; prefer = Some high_src }
    | Containers_select | Containers_event_api ->
        {
          Scenario.server with
          listens =
            [
              { listen with bind = Named "low-class" };
              { listen with bind = Named "high-class"; filter = Netsim.Filter.host high_src };
            ];
          model =
            Event
              (if variant = Containers_event_api then Event_server.Event_api
               else Event_server.Select);
          policy = Inherit_listen;
        }
  in
  let client name src_base seed count =
    { Scenario.group with name; src_base; jitter = Simtime.ms 2; seed; count }
  in
  {
    Scenario.base with
    system = (if variant = Without_containers then Harness.Unmodified else Harness.Rc_sys);
    containers =
      (if variant = Without_containers then []
       else
         [
           { name = "high-class"; parent = None; attrs = Attrs.timeshare ~priority:100 () };
           { name = "low-class"; parent = None; attrs = Attrs.timeshare ~priority:10 () };
         ]);
    servers = [ server ];
    groups =
      client "high" high_src 7 1
      :: (if low_clients > 0 then [ client "low" (Ipaddr.v 10 1 0 1) 11 low_clients ] else []);
    windows = [ Simtime.sec 4 ];
  }

let t_high s = (Scenario.stats (Scenario.window (Scenario.run s)) "high").mean_ms

let variants = [ Without_containers; Containers_select; Containers_event_api ]

let figure ~low_counts ~measure ~jobs =
  let curve (v, points) =
    Engine.Series.curve_of_points (variant_name v)
      (List.map (fun (n, y) -> (float_of_int n, y)) points)
  in
  Engine.Series.figure ~title:"Figure 11: T_high vs concurrent low-priority clients"
    ~x_label:"low-priority clients" ~y_label:"high-priority response time (ms)"
    (List.map curve
       (Harness.Sweep.grid ~jobs
          (fun v n -> t_high { (scenario v ~low_clients:n) with windows = [ measure ] })
          variants low_counts))
