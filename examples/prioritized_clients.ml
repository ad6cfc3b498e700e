(* Two-class quality of service for a Web server (paper §5.5).

   Premium clients (a known address) get a filtered listen socket bound to
   a high-priority container; everyone else lands in a low-priority
   container.  The event-driven server orders its work by container
   priority and the kernel processes premium packets first.

   Run with: dune exec examples/prioritized_clients.exe *)

module Simtime = Engine.Simtime
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Socket = Netsim.Socket
module Filter = Netsim.Filter
module Ipaddr = Netsim.Ipaddr
module Stack = Netsim.Stack
module Machine = Procsim.Machine
module Process = Procsim.Process

let premium_src = Ipaddr.v 10 9 9 9

let () =
  let sim = Engine.Sim.create () in
  let root = Container.create_root () in
  let machine = Machine.create ~sim ~policy:(fun () -> Sched.Multilevel.make ~root ()) ~root () in
  let proc = Process.create machine ~name:"httpd" () in
  let stack = Stack.create ~machine ~mode:Stack.Rc ~owner:(Process.default_container proc) () in
  let cache = Httpsim.File_cache.create () in
  Httpsim.File_cache.add_document cache ~path:"/doc/1k" ~bytes:1024;
  Httpsim.File_cache.warm cache;

  (* Containers per client class, and filtered listen sockets (§4.8). *)
  let premium =
    Container.create ~parent:root ~name:"premium" ~attrs:(Attrs.timeshare ~priority:100 ()) ()
  in
  let standard =
    Container.create ~parent:root ~name:"standard" ~attrs:(Attrs.timeshare ~priority:10 ()) ()
  in
  let listens =
    [
      Socket.make_listen ~port:80 ~filter:(Filter.host premium_src) ~container:premium ();
      Socket.make_listen ~port:80 ~container:standard ();
    ]
  in
  let server =
    Httpsim.Event_server.create ~stack ~process:proc ~cache
      ~api:Httpsim.Event_server.Event_api ~policy:Httpsim.Event_server.Inherit_listen ~listens
      ()
  in
  ignore (Httpsim.Event_server.start server);

  (* One premium client against 25 standard clients saturating the box. *)
  let vip =
    Workload.Sclient.create ~stack ~name:"vip" ~src_base:premium_src ~port:80 ~path:"/doc/1k"
      ~jitter:(Simtime.ms 2) ~count:1 ()
  in
  let crowd =
    Workload.Sclient.create ~stack ~name:"crowd" ~src_base:(Ipaddr.v 10 1 0 1) ~port:80
      ~path:"/doc/1k" ~jitter:(Simtime.ms 2) ~count:25 ()
  in
  Workload.Sclient.start vip;
  Workload.Sclient.start crowd;

  Machine.run_until machine (Simtime.add Simtime.zero (Simtime.sec 2));
  Workload.Sclient.reset_stats vip;
  Workload.Sclient.reset_stats crowd;
  Machine.run_until machine (Simtime.add Simtime.zero (Simtime.sec 6));

  let mean clients = Engine.Stats.Summary.mean (Workload.Sclient.response_times clients) in
  Format.printf "Saturated server, 1 premium client vs 25 standard clients:@.";
  Format.printf "  premium  : %5d requests, mean response %6.2f ms@."
    (Workload.Sclient.completed vip) (mean vip);
  Format.printf "  standard : %5d requests, mean response %6.2f ms@."
    (Workload.Sclient.completed crowd) (mean crowd);
  Format.printf "  kernel CPU charged to premium class: %a; standard class: %a@."
    Simtime.pp_span
    (Rescont.Usage.cpu_total (Container.usage premium))
    Simtime.pp_span
    (Rescont.Usage.cpu_total (Container.usage standard))
