(* Rent-A-Server virtual hosting (paper §5.8).

   Three guest Web servers share one machine under top-level fixed-share
   containers (50/30/20).  Guest loads are deliberately unequal — the
   third guest is hammered — yet consumption tracks the allocations, and
   each guest independently re-divides its own slice between static
   serving and a CGI sandbox.

   Run with: dune exec examples/virtual_hosting.exe *)

module Simtime = Engine.Simtime
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Socket = Netsim.Socket
module Stack = Netsim.Stack
module Machine = Procsim.Machine
module Process = Procsim.Process

let () =
  let sim = Engine.Sim.create () in
  let root = Container.create_root () in
  let machine = Machine.create ~sim ~policy:(fun () -> Sched.Multilevel.make ~root ()) ~root () in
  let sysproc = Process.create machine ~name:"system" () in
  let stack =
    Stack.create ~machine ~mode:Stack.Rc ~owner:(Process.default_container sysproc) ()
  in
  let cache = Httpsim.File_cache.create () in
  Httpsim.File_cache.add_document cache ~path:"/doc/1k" ~bytes:1024;
  Httpsim.File_cache.add_document cache ~path:"/cgi/run" ~bytes:0;
  Httpsim.File_cache.warm cache;

  let make_guest index (name, share, static_clients) =
    let guest = Container.create ~parent:root ~name ~attrs:(Attrs.fixed_share ~share ()) () in
    let cgi_parent =
      Container.create ~parent:guest ~name:(name ^ "/cgi")
        ~attrs:(Attrs.fixed_share ~share:0.4 ~cpu_limit:0.4 ())
        ()
    in
    let proc = Process.create machine ~container_parent:guest ~name () in
    Stack.add_service stack ~name:(name ^ "-netisr") ~home:(Process.default_container proc)
      ~covers:(fun c -> Container.has_ancestor c ~ancestor:guest);
    let port = 8001 + index in
    let listen = Socket.make_listen ~port ~container:(Process.default_container proc) () in
    let cgi =
      Httpsim.Cgi.create ~stack ~server_process:proc ~cgi_parent ~compute:(Simtime.ms 500) ()
    in
    let server =
      Httpsim.Event_server.create ~stack ~process:proc ~cache
        ~policy:Httpsim.Event_server.Inherit_listen ~dynamic_handler:(Httpsim.Cgi.handler cgi)
        ~listens:[ listen ] ()
    in
    ignore (Httpsim.Event_server.start server);
    let static =
      Workload.Sclient.create ~stack ~name:(name ^ "-static")
        ~src_base:(Netsim.Ipaddr.v 10 (50 + index) 0 1)
        ~port ~path:"/doc/1k" ~count:static_clients ()
    in
    let dynamic =
      Workload.Sclient.create ~stack ~name:(name ^ "-cgi")
        ~src_base:(Netsim.Ipaddr.v 10 (60 + index) 0 1)
        ~port ~path:"/cgi/run" ~syn_timeout:(Simtime.sec 30) ~count:1 ()
    in
    Workload.Sclient.start static;
    Workload.Sclient.start dynamic;
    (name, share, guest, cgi_parent, static)
  in
  let guests =
    List.mapi make_guest
      [ ("alpha.example", 0.5, 8); ("beta.example", 0.3, 8); ("gamma.example", 0.2, 40) ]
  in

  Machine.run_until machine (Simtime.add Simtime.zero (Simtime.sec 3));
  let marks = List.map (fun (_, _, g, _, s) -> Workload.Sclient.reset_stats s;
                         Container.subtree_cpu g) guests in
  let window = Simtime.sec 10 in
  Machine.run_until machine (Simtime.add (Engine.Sim.now sim) window);

  Format.printf "Three guests, fixed shares 50/30/20, gamma overloaded (40 clients):@.";
  List.iter2
    (fun (name, share, guest, cgi_parent, static) cpu0 ->
      let used = Simtime.span_sub (Container.subtree_cpu guest) cpu0 in
      Format.printf
        "  %-14s allocated %2.0f%%  consumed %4.1f%%  static %4.0f req/s  (cgi limited to 40%% of guest: %4.1f%%)@."
        name (100. *. share)
        (100. *. Simtime.ratio used window)
        (float_of_int (Workload.Sclient.completed static) /. Simtime.span_to_sec_f window)
        (100. *. Simtime.ratio (Container.subtree_cpu cgi_parent) (Container.subtree_cpu guest)))
    guests marks;
  Format.printf "  gamma cannot steal from alpha/beta no matter how hard it is driven.@."
