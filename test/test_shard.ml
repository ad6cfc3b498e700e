(* Tests for Engine.Shard: the conservative time-window barrier executor.
   The cluster-level determinism properties (shards=N byte-identical to
   shards=1) live in test_cluster.ml; here we pin the executor itself —
   window sequencing, mailbox drain, the boundary-tie rule, domain-count
   independence and failure propagation. *)

module Shard = Engine.Shard
module Sim = Engine.Sim
module Simtime = Engine.Simtime

let test_intbox_growth () =
  let b = Shard.Intbox.create () in
  (* 100 triples = 300 ints: forces several doublings past the initial
     capacity of 64. *)
  for i = 0 to 99 do
    Shard.Intbox.push3 b i (i * 7) (i * 13)
  done;
  Alcotest.(check int) "length" 300 (Shard.Intbox.length b);
  for i = 0 to 99 do
    Alcotest.(check int) "a" i (Shard.Intbox.get b (3 * i));
    Alcotest.(check int) "b" (i * 7) (Shard.Intbox.get b ((3 * i) + 1));
    Alcotest.(check int) "c" (i * 13) (Shard.Intbox.get b ((3 * i) + 2))
  done;
  Shard.Intbox.clear b;
  Alcotest.(check int) "cleared" 0 (Shard.Intbox.length b);
  Shard.Intbox.push2 b 42 43;
  Alcotest.(check int) "reusable after clear" 2 (Shard.Intbox.length b);
  Alcotest.check_raises "bounds" (Invalid_argument "Shard.Intbox.get: out of bounds")
    (fun () -> ignore (Shard.Intbox.get b 2))

let test_domain_clamping () =
  let t = Shard.create ~shards:3 ~domains:8 () in
  Alcotest.(check int) "domains clamped to shards" 3 (Shard.domains t);
  let t = Shard.create ~shards:64 () in
  Alcotest.(check bool)
    "default domains capped at the host's recommendation" true
    (Shard.domains t <= Domain.recommended_domain_count ());
  Alcotest.check_raises "shards >= 1" (Invalid_argument "Shard.create: shards must be >= 1")
    (fun () -> ignore (Shard.create ~shards:0 ()))

(* One run of a toy sharded simulation: [shards] sims, each with a
   periodic local event; every local event posts a cross-shard message to
   the next shard via a mailbox, drained at the barrier.  Returns the
   global event log assembled in canonical (shard-order) form at each
   barrier — the observable that must not depend on the domain count. *)
let toy_run ~shards ~domains =
  let sims = Array.init shards (fun _ -> Sim.create ()) in
  let boxes = Array.init shards (fun _ -> Shard.Intbox.create ()) in
  let logs = Array.init shards (fun _ -> Buffer.create 256) in
  let global = Buffer.create 1024 in
  let window = 100 in
  Array.iteri
    (fun s sim ->
      let rec tick () =
        let now_ns = Simtime.to_ns (Sim.now sim) in
        Buffer.add_string logs.(s) (Printf.sprintf "L%d@%d;" s now_ns);
        (* Cross-shard message to the next shard, delivered one full
           window later: always conservative. *)
        Shard.Intbox.push2 boxes.((s + 1) mod shards) (now_ns + window) s;
        if now_ns < 1000 then Sim.post sim (Simtime.span_of_ns (35 + (7 * s))) tick
      in
      Sim.post_at sim (Simtime.of_ns (10 + s)) tick)
    sims;
  let exec = Shard.create ~shards ~domains () in
  let cursor = ref 0 in
  let next () =
    if !cursor >= 1200 then None
    else begin
      cursor := !cursor + window;
      Some !cursor
    end
  in
  let work s h = Sim.run_until sims.(s) (Simtime.of_ns h) in
  let exchange h =
    Array.iteri
      (fun s box ->
        let len = Shard.Intbox.length box in
        let i = ref 0 in
        while !i < len do
          let at = Shard.Intbox.get box !i in
          let from = Shard.Intbox.get box (!i + 1) in
          Sim.post_at sims.(s) (Simtime.of_ns at) (fun () ->
              Buffer.add_string logs.(s)
                (Printf.sprintf "M%d->%d@%d;" from s at));
          i := !i + 2
        done;
        Shard.Intbox.clear box)
      boxes;
    Array.iteri
      (fun s log ->
        Buffer.add_string global (Printf.sprintf "[%d|%d]" s h);
        Buffer.add_buffer global log;
        Buffer.clear log)
      logs
  in
  Shard.run_windows exec ~next ~work ~exchange;
  (Buffer.contents global, Array.map Sim.now sims)

let test_domain_count_independence () =
  let log1, clocks1 = toy_run ~shards:4 ~domains:1 in
  (* domains:4 forces real cross-domain execution even on a small host
     (Shard.create only caps the default). *)
  let log4, clocks4 = toy_run ~shards:4 ~domains:4 in
  Alcotest.(check string) "event logs identical across domain counts" log1 log4;
  Array.iteri
    (fun s c ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d clock at horizon" s)
        (Simtime.to_ns clocks1.(s))
        (Simtime.to_ns c))
    clocks4;
  Alcotest.(check bool) "something happened" true (String.length log1 > 100)

let test_empty_shard_advances () =
  (* A shard with no events must not stall the windows: run_until is a
     pure clock advance on an empty sim, and the barrier schedule is a
     function of simulated time alone. *)
  let sims = [| Sim.create (); Sim.create () |] in
  let fired = ref 0 in
  Sim.post_at sims.(0) (Simtime.of_ns 50) (fun () -> incr fired);
  let exec = Shard.create ~shards:2 ~domains:1 () in
  let cursor = ref 0 in
  let next () = if !cursor >= 300 then None else (cursor := !cursor + 100; Some !cursor) in
  let work s h = Sim.run_until sims.(s) (Simtime.of_ns h) in
  Shard.run_windows exec ~next ~work ~exchange:(fun _ -> ());
  Alcotest.(check int) "event fired" 1 !fired;
  Alcotest.(check int) "busy shard at horizon" 300 (Simtime.to_ns (Sim.now sims.(0)));
  Alcotest.(check int) "empty shard at horizon" 300 (Simtime.to_ns (Sim.now sims.(1)))

let test_boundary_tie_local_first () =
  (* Two events at the same nanosecond, one scheduled locally during the
     window, one posted by the barrier: the local one fires inside its
     window (run_until is horizon-inclusive), the barrier message lands in
     the next window.  This "local first" rule is what the cluster's
     protocol relies on being identical at every shard count. *)
  let sim = Sim.create () in
  let log = ref [] in
  Sim.post_at sim (Simtime.of_ns 100) (fun () -> log := "local@100" :: !log);
  let exec = Shard.create ~shards:1 ~domains:1 () in
  let windows = ref [ 100; 200 ] in
  let next () =
    match !windows with [] -> None | h :: rest -> windows := rest; Some h
  in
  let work _ h = Sim.run_until sim (Simtime.of_ns h) in
  let posted = ref false in
  let exchange _ =
    if not !posted then begin
      posted := true;
      (* The barrier delivers a message stamped exactly at the window end:
         legal (not in the past) and it must sort after the local event. *)
      Sim.post_at sim (Simtime.of_ns 100) (fun () -> log := "msg@100" :: !log)
    end
  in
  Shard.run_windows exec ~next ~work ~exchange;
  Alcotest.(check (list string))
    "local event before barrier message at the same stamp" [ "local@100"; "msg@100" ]
    (List.rev !log)

let test_worker_exception_propagates () =
  (* A failure on a worker domain's shard must surface on the caller, and
     the executor must have joined its domains (a second run works). *)
  let boom h = Failure (Printf.sprintf "window %d exploded" h) in
  let run () =
    let exec = Shard.create ~shards:4 ~domains:4 () in
    let cursor = ref 0 in
    let next () = if !cursor >= 500 then None else (cursor := !cursor + 100; Some !cursor) in
    let work s h = if s = 2 && h = 300 then raise (boom h) in
    Shard.run_windows exec ~next ~work ~exchange:(fun _ -> ())
  in
  Alcotest.check_raises "worker failure re-raised on caller" (boom 300) run;
  Alcotest.check_raises "executor reusable after failure" (boom 300) run

(* A pool batch whose tasks each drive a multi-domain sharded run: the
   inner window batches run serially on the domain that submitted them,
   so every run matches the serial one and none waits on another. *)
let test_nested_pool_batches () =
  let serial = toy_run ~shards:4 ~domains:1 in
  let nested = Array.make 4 None in
  Engine.Pool.run ~domains:4 4 (fun i -> nested.(i) <- Some (toy_run ~shards:4 ~domains:4));
  Array.iteri
    (fun i r ->
      let log, clocks = Option.get r in
      Alcotest.(check string) (Printf.sprintf "task %d log" i) (fst serial) log;
      Alcotest.(check (array int))
        (Printf.sprintf "task %d clocks" i)
        (Array.map Simtime.to_ns (snd serial))
        (Array.map Simtime.to_ns clocks))
    nested;
  (* Two outer tasks leave workers idle; the inner batches still stay on
     their submitters instead of spreading over the idle domains. *)
  let strays = Atomic.make 0 in
  Engine.Pool.run ~domains:4 2 (fun _ ->
      let me = Domain.self () in
      Engine.Pool.run ~domains:4 8 (fun _ ->
          ignore (toy_run ~shards:2 ~domains:1);
          if Domain.self () <> me then Atomic.incr strays));
  Alcotest.(check int) "inner tasks ran on their submitter" 0 (Atomic.get strays)

let suite =
  [
    Alcotest.test_case "intbox: growth, reuse, bounds" `Quick test_intbox_growth;
    Alcotest.test_case "create clamps domains" `Quick test_domain_clamping;
    Alcotest.test_case "domain-count independence (4 domains vs 1)" `Quick
      test_domain_count_independence;
    Alcotest.test_case "empty shard advances with the windows" `Quick
      test_empty_shard_advances;
    Alcotest.test_case "boundary tie: local event before barrier message" `Quick
      test_boundary_tie_local_first;
    Alcotest.test_case "worker exception propagates to caller" `Quick
      test_worker_exception_propagates;
    Alcotest.test_case "nested pool batches match serial runs" `Quick test_nested_pool_batches;
  ]
