(* Integration tests: fast versions of the paper's experiments asserting
   the qualitative results the reproduction must preserve.  Marked `Slow
   where the simulated windows are long. *)

module Simtime = Engine.Simtime

(* A scenario's warm-up and its one measured window, shortened. *)
let timed ~warmup ~measure (s : Experiments.Scenario.t) = { s with warmup; windows = [ measure ] }

(* The named client group resized. *)
let clients name count (s : Experiments.Scenario.t) =
  {
    s with
    groups =
      List.map
        (fun (g : Experiments.Scenario.group) -> if g.name = name then { g with count } else g)
        s.groups;
  }

let test_baseline_calibration () =
  let r =
    Experiments.Exp_baseline.run
      (timed ~warmup:(Simtime.sec 1) ~measure:(Simtime.sec 2)
         (clients "clients" 24 (Experiments.Exp_baseline.scenario ~persistent:false)))
  in
  (* Paper: 2954 req/s, 338us per request.  Within 5%. *)
  Alcotest.(check bool) "throughput near 2954" true
    (r.Experiments.Exp_baseline.throughput > 2800. && r.Experiments.Exp_baseline.throughput < 3100.);
  Alcotest.(check bool) "cpu/request near 338us" true
    (r.Experiments.Exp_baseline.cpu_per_request_us > 320.
    && r.Experiments.Exp_baseline.cpu_per_request_us < 360.)

let test_baseline_persistent () =
  let r =
    Experiments.Exp_baseline.run
      (timed ~warmup:(Simtime.sec 1) ~measure:(Simtime.sec 2)
         (clients "clients" 24 (Experiments.Exp_baseline.scenario ~persistent:true)))
  in
  (* Paper: 9487 req/s.  Within 8%. *)
  Alcotest.(check bool) "throughput near 9487" true
    (r.Experiments.Exp_baseline.throughput > 8700. && r.Experiments.Exp_baseline.throughput < 10000.)

let t_high variant n =
  Experiments.Exp_fig11.t_high
    (timed ~warmup:(Simtime.sec 1) ~measure:(Simtime.sec 2)
       (Experiments.Exp_fig11.scenario variant ~low_clients:n))

let test_fig11_shape () =
  (* Unmodified: T_high explodes with load.  Containers: nearly flat. *)
  let unmod_0 = t_high Experiments.Exp_fig11.Without_containers 0 in
  let unmod_20 = t_high Experiments.Exp_fig11.Without_containers 20 in
  let rc_sel_20 = t_high Experiments.Exp_fig11.Containers_select 20 in
  let rc_ev_20 = t_high Experiments.Exp_fig11.Containers_event_api 20 in
  Alcotest.(check bool) "unmod grows >4x" true (unmod_20 > 4. *. unmod_0);
  Alcotest.(check bool) "rc/select well below unmod" true (rc_sel_20 < unmod_20 /. 2.);
  Alcotest.(check bool) "rc/event api below 2ms" true (rc_ev_20 < 2.);
  Alcotest.(check bool) "ordering holds" true (rc_ev_20 <= rc_sel_20 +. 0.3)

let fig12_point variant n =
  Experiments.Exp_fig12_13.run
    (timed ~warmup:(Simtime.sec 3) ~measure:(Simtime.sec 6)
       (clients "static" 16 (Experiments.Exp_fig12_13.scenario variant ~concurrent_cgi:n)))

let test_fig12_13_shape () =
  let unmod = fig12_point Experiments.Exp_fig12_13.Unmod 4 in
  let lrp = fig12_point Experiments.Exp_fig12_13.Lrp 4 in
  let rc30 = fig12_point Experiments.Exp_fig12_13.(Rc_capped 0.30) 4 in
  let rc10 = fig12_point Experiments.Exp_fig12_13.(Rc_capped 0.10) 4 in
  let tput p = p.Experiments.Exp_fig12_13.static_throughput in
  let share p = p.Experiments.Exp_fig12_13.cgi_cpu_share in
  (* Fig 12 ordering: RC10 > RC30 > Unmod > LRP. *)
  Alcotest.(check bool) "rc10 > rc30" true (tput rc10 > tput rc30);
  Alcotest.(check bool) "rc30 > unmod" true (tput rc30 > tput unmod);
  Alcotest.(check bool) "unmod > lrp (misaccounting favours server)" true
    (tput unmod > tput lrp);
  (* Fig 13: caps enforced almost exactly; LRP gives CGI its full fair
     share (4/5); unmodified gives it less. *)
  Alcotest.(check (float 0.03)) "30% cap" 0.30 (share rc30);
  Alcotest.(check (float 0.03)) "10% cap" 0.10 (share rc10);
  Alcotest.(check bool) "lrp fair share ~80%" true (share lrp > 0.72 && share lrp < 0.85);
  Alcotest.(check bool) "unmod below lrp" true (share unmod < share lrp)

let flood variant rate =
  Experiments.Exp_fig14.throughput
    (timed ~warmup:(Simtime.sec 1) ~measure:(Simtime.sec 2)
       (clients "good" 16 (Experiments.Exp_fig14.scenario variant ~syn_rate:rate)))

let test_fig14_shape () =
  let unmod_0 = flood Experiments.Exp_fig14.Unmod_flood 0. in
  let unmod_10k = flood Experiments.Exp_fig14.Unmod_flood 10_000. in
  let rc_70k = flood Experiments.Exp_fig14.Rc_filtered 70_000. in
  let rc_0 = flood Experiments.Exp_fig14.Rc_filtered 0. in
  Alcotest.(check bool) "unmodified collapses at 10k SYN/s" true (unmod_10k < 0.05 *. unmod_0);
  (* Paper: ~73% of maximum at 70k SYN/s. *)
  let residual = rc_70k /. rc_0 in
  Alcotest.(check bool) "RC residual ~73%" true (residual > 0.65 && residual < 0.82)

let test_virtual_isolation () =
  let results =
    Experiments.Exp_virtual.run
      (timed ~warmup:(Simtime.sec 2) ~measure:(Simtime.sec 6) Experiments.Exp_virtual.scenario)
  in
  List.iter
    (fun r ->
      Alcotest.(check (float 0.03))
        (r.Experiments.Exp_virtual.name ^ " share matches allocation")
        r.Experiments.Exp_virtual.allocated_share r.Experiments.Exp_virtual.measured_share)
    results

let test_overhead_negligible () =
  let r =
    Experiments.Exp_overhead.run
      (timed ~warmup:(Simtime.sec 1) ~measure:(Simtime.sec 2)
         (clients "clients" 32 Experiments.Exp_overhead.scenario))
  in
  (* Paper §5.4: "throughput remained effectively unchanged". *)
  Alcotest.(check bool) "under 4% overhead" true
    (Float.abs r.Experiments.Exp_overhead.relative_change < 0.04)

let test_table1_rows () =
  let rows = Experiments.Exp_table1.rows ~iterations:2_000 () in
  Alcotest.(check int) "seven rows" 7 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Experiments.Exp_table1.operation ^ " measured")
        true
        (r.Experiments.Exp_table1.measured_ns >= 0.
        && r.Experiments.Exp_table1.measured_ns < 1e6))
    rows

let test_scheduler_ablation () =
  let table =
    Experiments.Exp_ablation.scheduler_family_table ~measure:(Simtime.sec 2) ()
  in
  Alcotest.(check int) "four schedulers" 4 (List.length (Engine.Series.table_rows table))

(* Lottery walks its tickets in run-queue order, which follows container
   ids: the table must not change with what was built before it in the
   process. *)
let test_scheduler_ablation_hermetic () =
  let render () =
    Format.asprintf "%a" Engine.Series.pp_table
      (Experiments.Exp_ablation.scheduler_family_table ~measure:(Simtime.sec 2) ())
  in
  let first = render () in
  for rigs = 1 to 3 do
    for _ = 1 to rigs do
      ignore (Experiments.Harness.make_rig Experiments.Harness.Rc_sys)
    done;
    Alcotest.(check string) (Printf.sprintf "after %d more rigs" rigs) first (render ())
  done

let test_disk_extension_shapes () =
  let arch a =
    Experiments.Exp_disk.architecture_run
      (timed ~warmup:(Simtime.sec 2) ~measure:(Simtime.sec 5)
         (Experiments.Exp_disk.architecture_scenario a))
  in
  let event = arch `Event_driven in
  let threaded = arch `Multi_threaded in
  (* Overlapping disk I/O must beat blocking on it. *)
  Alcotest.(check bool) "threads overlap disk I/O" true
    (threaded.Experiments.Exp_disk.throughput > 1.2 *. event.Experiments.Exp_disk.throughput);
  let iso =
    Experiments.Exp_disk.isolation_run
      (timed ~warmup:(Simtime.sec 2) ~measure:(Simtime.sec 5)
         Experiments.Exp_disk.isolation_scenario)
  in
  Alcotest.(check bool) "premium class sees far lower latency" true
    (iso.Experiments.Exp_disk.premium_latency_ms
    < iso.Experiments.Exp_disk.standard_latency_ms /. 5.)

let test_determinism () =
  (* The whole simulation must be reproducible: two identical runs give
     identical results. *)
  let once () =
    Experiments.Exp_baseline.run
      (timed ~warmup:(Simtime.ms 500) ~measure:(Simtime.sec 1)
         (clients "clients" 8 (Experiments.Exp_baseline.scenario ~persistent:false)))
  in
  let a = once () and b = once () in
  Alcotest.(check (float 1e-9))
    "identical throughput" a.Experiments.Exp_baseline.throughput
    b.Experiments.Exp_baseline.throughput

let suite =
  [
    Alcotest.test_case "baseline calibration (§5.3)" `Slow test_baseline_calibration;
    Alcotest.test_case "baseline persistent (§5.3)" `Slow test_baseline_persistent;
    Alcotest.test_case "fig 11 shape" `Slow test_fig11_shape;
    Alcotest.test_case "fig 12/13 shape" `Slow test_fig12_13_shape;
    Alcotest.test_case "fig 14 shape" `Slow test_fig14_shape;
    Alcotest.test_case "virtual server isolation (§5.8)" `Slow test_virtual_isolation;
    Alcotest.test_case "container overhead (§5.4)" `Slow test_overhead_negligible;
    Alcotest.test_case "table 1 measurement" `Quick test_table1_rows;
    Alcotest.test_case "scheduler ablation" `Slow test_scheduler_ablation;
    Alcotest.test_case "disk extension shapes" `Slow test_disk_extension_shapes;
    Alcotest.test_case "determinism" `Slow test_determinism;
    Alcotest.test_case "scheduler ablation is hermetic" `Quick test_scheduler_ablation_hermetic;
  ]
