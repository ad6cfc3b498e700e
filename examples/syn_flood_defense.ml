(* Adaptive SYN-flood defence (paper §5.7, automated).

   The server starts with a single ordinary listen socket.  The modified
   kernel notifies the application whenever a SYN is dropped on queue
   overflow; the application watches these notifications, infers the
   attacker's /24, and installs a filtered listen socket bound to a
   priority-0 container — after which the flood costs only interrupt +
   demultiplex time and service recovers.

   Run with: dune exec examples/syn_flood_defense.exe *)

module Simtime = Engine.Simtime
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Socket = Netsim.Socket
module Filter = Netsim.Filter
module Ipaddr = Netsim.Ipaddr
module Stack = Netsim.Stack
module Machine = Procsim.Machine
module Process = Procsim.Process

let () =
  let sim = Engine.Sim.create () in
  let root = Container.create_root () in
  let machine = Machine.create ~sim ~policy:(fun () -> Sched.Multilevel.make ~root ()) ~root () in
  let proc = Process.create machine ~name:"httpd" () in
  let stack = Stack.create ~machine ~mode:Stack.Rc ~owner:(Process.default_container proc) () in
  let cache = Httpsim.File_cache.create () in
  Httpsim.File_cache.add_document cache ~path:"/doc/1k" ~bytes:1024;
  Httpsim.File_cache.warm cache;

  let main_listen = Socket.make_unbound_listen ~port:80 ~syn_backlog:256 (Container.run root) in
  let server =
    Httpsim.Event_server.create ~stack ~process:proc ~cache ~listens:[ main_listen ] ()
  in
  ignore (Httpsim.Event_server.start server);

  (* The adaptive defence: count drop notifications per /24; blacklist a
     prefix once it passes a threshold. *)
  let drop_counts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let blacklisted = ref [] in
  let defence_installed_at = ref None in
  Stack.set_on_syn_drop stack (fun _listen src ->
      let prefix = Ipaddr.to_string src |> String.split_on_char '.' in
      let key = String.concat "." (List.filteri (fun i _ -> i < 3) prefix) in
      let n = 1 + Option.value ~default:0 (Hashtbl.find_opt drop_counts key) in
      Hashtbl.replace drop_counts key n;
      if n = 200 && not (List.mem key !blacklisted) then begin
        blacklisted := key :: !blacklisted;
        defence_installed_at := Some (Engine.Sim.now sim);
        let template = Ipaddr.of_string (key ^ ".0") in
        let attackers =
          Container.create ~parent:root
            ~name:("attackers-" ^ key)
            ~attrs:(Attrs.timeshare ~priority:0 ())
            ()
        in
        Stack.add_listen stack
          (Socket.make_listen ~port:80
             ~filter:(Filter.prefix ~template ~bits:24)
             ~container:attackers ~syn_backlog:64 ())
      end);

  let good =
    Workload.Sclient.create ~stack ~name:"good" ~port:80 ~path:"/doc/1k" ~count:16 ()
  in
  Workload.Sclient.start good;
  let flood =
    Workload.Synflood.create ~stack ~src_base:(Ipaddr.v 192 168 66 1) ~rate_per_sec:30_000.
      ~port:80 ()
  in

  let sample label span =
    Workload.Sclient.reset_stats good;
    Machine.run_until machine (Simtime.add (Engine.Sim.now sim) span);
    Format.printf "  %-28s %6.0f req/s@." label
      (float_of_int (Workload.Sclient.completed good) /. Simtime.span_to_sec_f span)
  in
  Format.printf "Adaptive SYN-flood defence (30,000 bogus SYNs/sec from 192.168.66.0/24):@.";
  Machine.run_until machine (Simtime.add (Engine.Sim.now sim) (Simtime.sec 1));
  sample "before the attack" (Simtime.sec 2);
  Workload.Synflood.start flood;
  sample "attack, defence cold" (Simtime.sec 2);
  (* Give clients stuck in 3s retransmit backoff a moment to recover. *)
  Machine.run_until machine (Simtime.add (Engine.Sim.now sim) (Simtime.sec 4));
  sample "attack, defence active" (Simtime.sec 4);
  (match !defence_installed_at with
  | Some t -> Format.printf "  (filter installed at t=%a after ~200 drop notifications)@." Simtime.pp t
  | None -> Format.printf "  (defence never triggered)@.");
  Format.printf "  flood SYNs sent: %d; early discards: %d@." (Workload.Synflood.sent flood)
    (Stack.stats stack).Stack.rx_queue_drops
