(* Tests for the workload generators. *)

module Simtime = Engine.Simtime
module Sim = Engine.Sim
module Container = Rescont.Container
module Machine = Procsim.Machine
module Process = Procsim.Process
module Socket = Netsim.Socket
module Stack = Netsim.Stack

let make_rig () =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let policy = Sched.Multilevel.make ~root () in
  let machine = Machine.create ~sim ~policy:(fun () -> policy) ~root () in
  let proc = Process.create machine ~name:"srv" () in
  let stack = Stack.create ~machine ~mode:Stack.Rc ~owner:(Process.default_container proc) () in
  let cache = Httpsim.File_cache.create () in
  Httpsim.File_cache.add_document cache ~path:"/doc/1k" ~bytes:1024;
  Httpsim.File_cache.warm cache;
  (sim, machine, proc, stack, cache)

let with_server (sim, machine, proc, stack, cache) =
  let listen = Socket.make_unbound_listen ~port:80 (Container.run (Machine.root machine)) in
  let server = Httpsim.Event_server.create ~stack ~process:proc ~cache ~listens:[ listen ] () in
  ignore (Httpsim.Event_server.start server);
  (sim, machine, stack, server)

let run machine sim span = Machine.run_until machine (Simtime.add (Sim.now sim) span)

let test_sclient_closed_loop () =
  let sim, machine, stack, _server = with_server (make_rig ()) in
  let clients = Workload.Sclient.create ~stack ~port:80 ~path:"/doc/1k" ~count:2 () in
  Workload.Sclient.start clients;
  run machine sim (Simtime.ms 500);
  let completed = Workload.Sclient.completed clients in
  Alcotest.(check bool) "progress" true (completed > 50);
  Alcotest.(check int) "no timeouts" 0 (Workload.Sclient.timeouts clients);
  let lat = Engine.Stats.Summary.mean (Workload.Sclient.response_times clients) in
  Alcotest.(check bool) "latency plausible (sub-5ms unloaded)" true (lat > 0.3 && lat < 5.)

let test_sclient_stop () =
  let sim, machine, stack, _server = with_server (make_rig ()) in
  let clients = Workload.Sclient.create ~stack ~port:80 ~path:"/doc/1k" ~count:1 () in
  Workload.Sclient.start clients;
  run machine sim (Simtime.ms 100);
  Workload.Sclient.stop clients;
  let at_stop = Workload.Sclient.completed clients in
  run machine sim (Simtime.ms 200);
  Alcotest.(check bool) "at most one in-flight completion after stop" true
    (Workload.Sclient.completed clients - at_stop <= 1)

let test_sclient_reset_and_window () =
  let sim, machine, stack, _server = with_server (make_rig ()) in
  let clients = Workload.Sclient.create ~stack ~port:80 ~path:"/doc/1k" ~count:2 () in
  Workload.Sclient.start clients;
  run machine sim (Simtime.ms 200);
  Workload.Sclient.reset_stats clients;
  Alcotest.(check int) "reset" 0 (Workload.Sclient.completed clients);
  let t0 = Sim.now sim in
  run machine sim (Simtime.ms 200);
  let t1 = Sim.now sim in
  Alcotest.(check int) "window count matches total since reset"
    (Workload.Sclient.completed clients)
    (Workload.Sclient.completions_in clients t0 t1)

(* Regression: completion marks moved from an unbounded list to a bounded
   ring.  With a fixed seed, the windowed counts must agree exactly with the
   all-time counter (the ring is far larger than any test run), and windows
   must be additive. *)
let test_sclient_marks_ring_equivalence () =
  let sim, machine, stack, _server = with_server (make_rig ()) in
  let clients =
    Workload.Sclient.create ~stack ~port:80 ~path:"/doc/1k" ~seed:11 ~count:2 ()
  in
  let t0 = Sim.now sim in
  Workload.Sclient.start clients;
  run machine sim (Simtime.ms 200);
  let tm = Sim.now sim in
  run machine sim (Simtime.ms 200);
  let t1 = Sim.now sim in
  let total = Workload.Sclient.completed clients in
  Alcotest.(check bool) "enough samples to be meaningful" true (total > 50);
  Alcotest.(check int) "full window equals all-time counter" total
    (Workload.Sclient.completions_in clients t0 t1);
  Alcotest.(check int) "sub-windows are additive" total
    (Workload.Sclient.completions_in clients t0 tm
    + Workload.Sclient.completions_in clients tm t1);
  Alcotest.(check int) "empty window counts nothing" 0
    (Workload.Sclient.completions_in clients t1 t1)

let test_sclient_timeout_on_dead_port () =
  let sim, machine, _, stack, _ = make_rig () in
  (* No listen socket: connects are refused (RST), clients count refusals
     and retry after the retry delay. *)
  let clients =
    Workload.Sclient.create ~stack ~port:80 ~retry_delay:(Simtime.ms 50) ~count:1 ()
  in
  Workload.Sclient.start clients;
  run machine sim (Simtime.ms 400);
  Alcotest.(check bool) "refusals counted" true (Workload.Sclient.refused clients >= 2);
  Alcotest.(check int) "nothing completed" 0 (Workload.Sclient.completed clients)

let test_sclient_jitter_determinism () =
  let run_once () =
    let sim, machine, stack, _server = with_server (make_rig ()) in
    let clients =
      Workload.Sclient.create ~stack ~port:80 ~jitter:(Simtime.ms 1) ~seed:5 ~count:2 ()
    in
    Workload.Sclient.start clients;
    run machine sim (Simtime.ms 300);
    Workload.Sclient.completed clients
  in
  Alcotest.(check int) "same seed, same result" (run_once ()) (run_once ())

let test_sclient_percentiles () =
  let sim, machine, stack, _server = with_server (make_rig ()) in
  let clients = Workload.Sclient.create ~stack ~port:80 ~path:"/doc/1k" ~count:2 () in
  Workload.Sclient.start clients;
  run machine sim (Simtime.ms 500);
  let p50 = Workload.Sclient.response_percentile clients 0.5 in
  let p99 = Workload.Sclient.response_percentile clients 0.99 in
  let mean = Engine.Stats.Summary.mean (Workload.Sclient.response_times clients) in
  Alcotest.(check bool) "p50 <= p99" true (p50 <= p99);
  Alcotest.(check bool) "median in the mean's vicinity" true
    (p50 > mean /. 4. && p50 < mean *. 4.);
  Alcotest.(check (float 1e-9)) "empty after reset" 0.
    (Workload.Sclient.reset_stats clients;
     Workload.Sclient.response_percentile clients 0.9)

let test_synflood_rate () =
  let sim, machine, _, stack, _ = make_rig () in
  let listen = Socket.make_unbound_listen ~port:80 (Container.run (Machine.root machine)) in
  Stack.add_listen stack listen;
  let flood = Workload.Synflood.create ~stack ~rate_per_sec:10_000. ~port:80 () in
  Workload.Synflood.start flood;
  run machine sim (Simtime.ms 100);
  Alcotest.(check bool) "~1000 SYNs in 100ms" true
    (abs (Workload.Synflood.sent flood - 1000) <= 2);
  Workload.Synflood.stop flood;
  let at_stop = Workload.Synflood.sent flood in
  run machine sim (Simtime.ms 100);
  Alcotest.(check int) "stopped" at_stop (Workload.Synflood.sent flood)

let test_synflood_sources_cycle () =
  let sim, machine, _, stack, _ = make_rig () in
  let listen =
    Socket.make_unbound_listen ~port:80 ~syn_backlog:10_000 (Container.run (Machine.root machine))
  in
  Stack.add_listen stack listen;
  let flood =
    Workload.Synflood.create ~stack ~src_count:4 ~rate_per_sec:100_000. ~port:80 ()
  in
  Workload.Synflood.start flood;
  run machine sim (Simtime.ms 1);
  (* Sources must cycle within the configured block. *)
  let srcs = ref [] in
  Queue.iter
    (fun conn -> srcs := Netsim.Ipaddr.to_string conn.Socket.src :: !srcs)
    listen.Socket.syn_queue;
  let distinct = List.sort_uniq compare !srcs in
  Alcotest.(check int) "four distinct sources" 4 (List.length distinct)

let test_synflood_prefix () =
  let _, _, _, stack, _ = make_rig () in
  let flood = Workload.Synflood.create ~stack ~src_count:256 ~rate_per_sec:1. ~port:80 () in
  let _base, bits = Workload.Synflood.source_prefix flood in
  Alcotest.(check int) "256 sources = /24" 24 bits;
  let flood16 = Workload.Synflood.create ~stack ~src_count:65536 ~rate_per_sec:1. ~port:80 () in
  Alcotest.(check int) "65536 sources = /16" 16 (snd (Workload.Synflood.source_prefix flood16))

let test_synflood_poisson () =
  let sim, machine, _, stack, _ = make_rig () in
  let listen =
    Socket.make_unbound_listen ~port:80 ~syn_backlog:100_000 (Container.run (Machine.root machine))
  in
  Stack.add_listen stack listen;
  let flood =
    Workload.Synflood.create ~stack ~rng:(Engine.Rng.create ~seed:3) ~rate_per_sec:10_000.
      ~port:80 ()
  in
  Workload.Synflood.start flood;
  run machine sim (Simtime.sec 1);
  let sent = Workload.Synflood.sent flood in
  Alcotest.(check bool) "Poisson rate within 10%" true (sent > 9_000 && sent < 11_000)

let suite =
  [
    Alcotest.test_case "sclient closed loop" `Quick test_sclient_closed_loop;
    Alcotest.test_case "sclient stop" `Quick test_sclient_stop;
    Alcotest.test_case "sclient reset and window" `Quick test_sclient_reset_and_window;
    Alcotest.test_case "sclient marks ring equivalence" `Quick
      test_sclient_marks_ring_equivalence;
    Alcotest.test_case "sclient refused retries" `Quick test_sclient_timeout_on_dead_port;
    Alcotest.test_case "sclient jitter determinism" `Quick test_sclient_jitter_determinism;
    Alcotest.test_case "sclient percentiles" `Quick test_sclient_percentiles;
    Alcotest.test_case "synflood rate" `Quick test_synflood_rate;
    Alcotest.test_case "synflood sources cycle" `Quick test_synflood_sources_cycle;
    Alcotest.test_case "synflood prefix" `Quick test_synflood_prefix;
    Alcotest.test_case "synflood poisson" `Quick test_synflood_poisson;
  ]
