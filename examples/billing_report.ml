(* Metering and billing with resource containers (paper §4.8).

   "Because resource containers enable precise accounting for the costs of
   an activity, they may be useful to administrators simply for sending
   accurate bills to customers, and for use in capacity planning."

   Three hosted customers share one machine under fixed-share containers;
   their workloads differ wildly (one static-heavy, one CGI-heavy, one
   miss-heavy hitting the disk).  A billing meter closes an invoice cycle
   every 5 simulated seconds and prices each customer's actual CPU,
   network, and disk consumption.

   Run with: dune exec examples/billing_report.exe *)

module Simtime = Engine.Simtime
module Sim = Engine.Sim
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Billing = Rescont.Billing
module Machine = Procsim.Machine
module Process = Procsim.Process
module Socket = Netsim.Socket
module Stack = Netsim.Stack

let () =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let machine = Machine.create ~sim ~policy:(fun () -> Sched.Multilevel.make ~root ()) ~root () in
  let sysproc = Process.create machine ~name:"system" () in
  let stack =
    Stack.create ~machine ~mode:Stack.Rc ~owner:(Process.default_container sysproc) ()
  in
  let disk = Disksim.Disk.create ~machine () in
  let meter = Billing.create ~now:(Sim.now sim) () in

  let make_customer index (name, share, workload) =
    let guest = Container.create ~parent:root ~name ~attrs:(Attrs.fixed_share ~share ()) () in
    Billing.track meter ~customer:name guest;
    let proc = Process.create machine ~container_parent:guest ~name () in
    Stack.add_service stack ~name:(name ^ "-netisr") ~home:(Process.default_container proc)
      ~covers:(fun c -> Container.has_ancestor c ~ancestor:guest);
    let port = 9001 + index in
    let listen = Socket.make_listen ~port ~container:(Process.default_container proc) () in
    let cache =
      (* Small cache so the miss-heavy customer actually hits the disk. *)
      Httpsim.File_cache.create ~capacity_bytes:(64 * 1024) ()
    in
    Httpsim.File_cache.add_document cache ~path:"/doc/1k" ~bytes:1024;
    for i = 1 to 50 do
      Httpsim.File_cache.add_document cache ~path:(Printf.sprintf "/big/%d" i) ~bytes:65536
    done;
    Httpsim.File_cache.warm cache;
    let cgi_parent =
      Container.create ~parent:guest ~name:(name ^ "-cgi")
        ~attrs:(Attrs.fixed_share ~share:0.5 ~cpu_limit:0.5 ())
        ()
    in
    let cgi =
      Httpsim.Cgi.create ~stack ~server_process:proc ~cgi_parent ~compute:(Simtime.ms 20) ~mode:(Httpsim.Cgi.Persistent_pool 2) ()
    in
    let server =
      Httpsim.Threaded_server.create ~stack ~process:proc ~cache ~disk ~workers:8
        ~policy:Httpsim.Event_server.Inherit_listen
        ~dynamic_handler:(Httpsim.Cgi.handler cgi) ~listens:[ listen ] ()
    in
    Httpsim.Threaded_server.start server;
    let path_mix =
      match workload with
      | `Static_heavy -> [ (1.0, "/doc/1k") ]
      | `Cgi_heavy -> [ (0.99, "/doc/1k"); (0.01, "/cgi/run") ]
      | `Disk_heavy -> List.init 50 (fun i -> (1.0, Printf.sprintf "/big/%d" (i + 1)))
    in
    let clients =
      Workload.Sclient.create ~stack ~name
        ~src_base:(Netsim.Ipaddr.v 10 (70 + index) 0 1)
        ~port ~path_mix ~syn_timeout:(Simtime.sec 30) ~count:8 ()
    in
    Workload.Sclient.start clients
  in
  List.iteri make_customer
    [
      ("static.example", 0.4, `Static_heavy);
      ("apps.example", 0.35, `Cgi_heavy);
      ("archive.example", 0.25, `Disk_heavy);
    ];

  Format.printf "Three hosted customers, invoiced every 5 simulated seconds:@.@.";
  for _cycle = 1 to 3 do
    Machine.run_until machine (Simtime.add (Sim.now sim) (Simtime.sec 5));
    let invoice = Billing.close_cycle meter ~now:(Sim.now sim) in
    Format.printf "%a@." Engine.Series.pp_table (Billing.invoice_table invoice)
  done;
  Format.printf
    "Each line prices the customer's whole container subtree: static serving,@.";
  Format.printf "CGI sandboxes, kernel network processing, and disk transfers.@."
