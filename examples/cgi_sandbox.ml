(* A resource sandbox around CGI processing (paper §5.6).

   Static requests compete with runaway CGI requests that each burn two
   seconds of CPU.  Without containers the CGI processes take over the
   machine; with a capped CGI-parent container, static service barely
   notices them.  This example runs both configurations back to back.

   Run with: dune exec examples/cgi_sandbox.exe *)

module Simtime = Engine.Simtime
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Socket = Netsim.Socket
module Stack = Netsim.Stack
module Machine = Procsim.Machine
module Process = Procsim.Process

let run ~sandbox =
  let sim = Engine.Sim.create () in
  let root = Container.create_root () in
  let policy =
    if sandbox then Sched.Multilevel.make ~root () else Sched.Timeshare.make ()
  in
  let machine = Machine.create ~sim ~policy:(fun () -> policy) ~root () in
  let proc = Process.create machine ~name:"httpd" () in
  let mode = if sandbox then Stack.Rc else Stack.Softirq in
  let stack = Stack.create ~machine ~mode ~owner:(Process.default_container proc) () in
  let cache = Httpsim.File_cache.create () in
  Httpsim.File_cache.add_document cache ~path:"/doc/1k" ~bytes:1024;
  Httpsim.File_cache.add_document cache ~path:"/cgi/run" ~bytes:0;
  Httpsim.File_cache.warm cache;
  let cgi_parent =
    if sandbox then
      Some
        (Container.create ~parent:root ~name:"cgi-sandbox"
           ~attrs:(Attrs.fixed_share ~share:0.2 ~cpu_limit:0.2 ())
           ())
    else None
  in
  let cgi = Httpsim.Cgi.create ~stack ~server_process:proc ?cgi_parent () in
  let listen = Socket.make_unbound_listen ~port:80 (Container.run root) in
  let server =
    Httpsim.Event_server.create ~stack ~process:proc ~cache
      ~dynamic_handler:(Httpsim.Cgi.handler cgi) ~listens:[ listen ] ()
  in
  ignore (Httpsim.Event_server.start server);
  let static = Workload.Sclient.create ~stack ~port:80 ~path:"/doc/1k" ~count:24 () in
  let cgi_load =
    Workload.Sclient.create ~stack ~src_base:(Netsim.Ipaddr.v 10 2 0 1) ~port:80
      ~path:"/cgi/run" ~syn_timeout:(Simtime.sec 60) ~count:4 ()
  in
  Workload.Sclient.start static;
  Workload.Sclient.start cgi_load;
  Machine.run_until machine (Simtime.add Simtime.zero (Simtime.sec 4));
  Workload.Sclient.reset_stats static;
  let cgi_cpu0 = Httpsim.Cgi.cpu_charged cgi in
  let window = Simtime.sec 10 in
  Machine.run_until machine (Simtime.add (Engine.Sim.now sim) window);
  let tput = float_of_int (Workload.Sclient.completed static) /. Simtime.span_to_sec_f window in
  let cgi_share =
    Simtime.ratio (Simtime.span_sub (Httpsim.Cgi.cpu_charged cgi) cgi_cpu0) window
  in
  (tput, cgi_share)

let () =
  Format.printf "Static load (24 clients) vs 4 runaway CGI requests (2s CPU each):@.";
  let tput_open, share_open = run ~sandbox:false in
  Format.printf "  unmodified kernel  : static %4.0f req/s, CGI eats %4.1f%% of the CPU@."
    tput_open (100. *. share_open);
  let tput_boxed, share_boxed = run ~sandbox:true in
  Format.printf "  with a 20%% sandbox : static %4.0f req/s, CGI held to %4.1f%%@." tput_boxed
    (100. *. share_boxed)
