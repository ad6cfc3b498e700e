(* Tests for the parallel sweep executor: input-order results, exception
   propagation, and the headline guarantee — a sweep's JSON report is
   byte-identical whether it ran on one domain or four. *)

module Sweep = Experiments.Harness.Sweep
module Exp_sweep = Experiments.Exp_sweep
module Simtime = Engine.Simtime

let test_map_order () =
  let points = Array.init 20 (fun i -> i) in
  let expect = Array.map (fun i -> i * i) points in
  List.iter
    (fun jobs ->
      let got = Sweep.map ~jobs (fun i -> i * i) points in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d preserves order" jobs)
        expect got)
    [ 1; 2; 4; 7 ]

let test_map_empty_and_single () =
  Alcotest.(check (array int)) "empty" [||] (Sweep.map ~jobs:4 (fun i -> i) [||]);
  Alcotest.(check (array int)) "single" [| 3 |] (Sweep.map ~jobs:4 (fun i -> i + 1) [| 2 |])

exception Boom of int

let test_map_exception () =
  let raised =
    try
      ignore (Sweep.map ~jobs:3 (fun i -> if i = 5 then raise (Boom i) else i) (Array.init 8 Fun.id));
      None
    with Boom i -> Some i
  in
  Alcotest.(check (option int)) "failure propagates" (Some 5) raised

let test_recommended_jobs () =
  Alcotest.(check bool) "at least one core" true (Sweep.recommended_jobs () >= 1)

(* Sweep.map caps [jobs] at the host's core count, so these drive the
   pool with an explicit domain count to put it into action even on a
   1-core host, and run several batches so the generation hand-off
   between batches is exercised, not just the first spawn. *)
let test_pool_across_batches () =
  let expect = Array.init 60 (fun i -> (i * 7) + 1) in
  for round = 1 to 3 do
    let got = Array.make 60 0 in
    Engine.Pool.run ~domains:4 60 (fun i -> got.(i) <- (i * 7) + 1);
    Alcotest.(check (array int))
      (Printf.sprintf "pooled round %d preserves order" round)
      expect got
  done

let test_pool_exception () =
  let raised =
    try
      Engine.Pool.run ~domains:3 8 (fun i -> if i = 5 then raise (Boom i));
      None
    with Boom i -> Some i
  in
  Alcotest.(check (option int)) "failure propagates from the pool" (Some 5) raised

(* The determinism guarantee, end to end: the same miniature sweep run
   serially and run across four domains must render to the same bytes.
   This is what makes --jobs safe to default on for result generation. *)
let test_jobs_determinism () =
  let points = Exp_sweep.grid ~client_counts:[ 2 ] ~seeds:[ 1 ] in
  let warmup = Simtime.ms 100 and measure = Simtime.ms 400 in
  let scenarios =
    Array.map (fun p -> { (Exp_sweep.scenario p) with warmup; windows = [ measure ] }) points
  in
  let run jobs = Exp_sweep.report_string (Sweep.map ~jobs Exp_sweep.run scenarios) in
  let serial = run 1 in
  let parallel = run 4 in
  Alcotest.(check string) "jobs=4 report == jobs=1 report" serial parallel;
  Alcotest.(check bool) "report is non-trivial" true (String.length serial > 100)

let suite =
  [
    Alcotest.test_case "map preserves input order" `Quick test_map_order;
    Alcotest.test_case "map edge cases" `Quick test_map_empty_and_single;
    Alcotest.test_case "map propagates exceptions" `Quick test_map_exception;
    Alcotest.test_case "recommended jobs" `Quick test_recommended_jobs;
    Alcotest.test_case "worker pool across batches" `Quick test_pool_across_batches;
    Alcotest.test_case "worker pool propagates exceptions" `Quick test_pool_exception;
    Alcotest.test_case "jobs=4 equals jobs=1 byte-for-byte" `Quick test_jobs_determinism;
  ]
