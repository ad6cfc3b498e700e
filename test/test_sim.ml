(* Tests for the Engine.Sim discrete-event driver and Tracelog/Series. *)

module Sim = Engine.Sim
module Simtime = Engine.Simtime

let test_empty_run () =
  let sim = Sim.create () in
  Sim.run sim;
  Alcotest.(check int) "clock stays at zero" 0 (Simtime.to_ns (Sim.now sim))

let test_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  let record tag () = log := tag :: !log in
  ignore (Sim.at sim (Simtime.of_ns 30) (record "c"));
  ignore (Sim.at sim (Simtime.of_ns 10) (record "a"));
  ignore (Sim.at sim (Simtime.of_ns 20) (record "b"));
  Sim.run sim;
  Alcotest.(check (list string)) "timestamp order" [ "a"; "b"; "c" ] (List.rev !log)

let test_same_time_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sim.at sim (Simtime.of_ns 100) (fun () -> log := i :: !log))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "schedule order at same instant" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_clock_advances () =
  let sim = Sim.create () in
  let seen = ref [] in
  ignore (Sim.after sim (Simtime.us 5) (fun () -> seen := Simtime.to_ns (Sim.now sim) :: !seen));
  ignore (Sim.after sim (Simtime.us 2) (fun () -> seen := Simtime.to_ns (Sim.now sim) :: !seen));
  Sim.run sim;
  Alcotest.(check (list int)) "clock at fire time" [ 2_000; 5_000 ] (List.rev !seen)

let test_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let ev = Sim.after sim (Simtime.us 1) (fun () -> fired := true) in
  Alcotest.(check bool) "cancel succeeds" true (Sim.cancel sim ev);
  Alcotest.(check bool) "cancel twice fails" false (Sim.cancel sim ev);
  Sim.run sim;
  Alcotest.(check bool) "did not fire" false !fired

let test_nested_scheduling () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.after sim (Simtime.us 1) (fun () ->
         log := "outer" :: !log;
         ignore (Sim.after sim (Simtime.us 1) (fun () -> log := "inner" :: !log))));
  Sim.run sim;
  Alcotest.(check (list string)) "nested fires" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check int) "clock" 2_000 (Simtime.to_ns (Sim.now sim))

let test_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.at sim (Simtime.of_ns (i * 100)) (fun () -> incr count))
  done;
  Sim.run_until sim (Simtime.of_ns 500);
  Alcotest.(check int) "events up to horizon" 5 !count;
  Alcotest.(check int) "clock at horizon" 500 (Simtime.to_ns (Sim.now sim));
  Sim.run_until sim (Simtime.of_ns 2_000);
  Alcotest.(check int) "rest fire" 10 !count;
  Alcotest.(check int) "clock at second horizon" 2_000 (Simtime.to_ns (Sim.now sim))

let test_past_scheduling_rejected () =
  let sim = Sim.create () in
  ignore (Sim.at sim (Simtime.of_ns 100) (fun () -> ()));
  Sim.run sim;
  let raised =
    try
      ignore (Sim.at sim (Simtime.of_ns 50) (fun () -> ()));
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "scheduling in the past raises" true raised

let test_after_negative_is_now () =
  let sim = Sim.create () in
  let fired = ref false in
  ignore (Sim.after sim (Simtime.span_of_ns (-5)) (fun () -> fired := true));
  Sim.run sim;
  Alcotest.(check bool) "fires immediately" true !fired

let test_every () =
  let sim = Sim.create () in
  let count = ref 0 in
  let timer = Sim.every sim (Simtime.us 10) (fun () -> incr count) in
  Sim.run_until sim (Simtime.of_ns 55_000);
  Alcotest.(check int) "five periods" 5 !count;
  ignore (Sim.cancel sim timer);
  Sim.run_until sim (Simtime.of_ns 100_000);
  Alcotest.(check int) "cancelled stops the series" 5 !count

let test_pending () =
  let sim = Sim.create () in
  Alcotest.(check int) "none" 0 (Sim.pending sim);
  let a = Sim.after sim (Simtime.us 1) (fun () -> ()) in
  ignore (Sim.after sim (Simtime.us 2) (fun () -> ()));
  Alcotest.(check int) "two" 2 (Sim.pending sim);
  ignore (Sim.cancel sim a);
  Alcotest.(check int) "one after cancel" 1 (Sim.pending sim)

let test_step () =
  let sim = Sim.create () in
  let log = ref 0 in
  ignore (Sim.after sim (Simtime.us 1) (fun () -> incr log));
  ignore (Sim.after sim (Simtime.us 2) (fun () -> incr log));
  Alcotest.(check bool) "step 1" true (Sim.step sim);
  Alcotest.(check int) "one fired" 1 !log;
  Alcotest.(check bool) "step 2" true (Sim.step sim);
  Alcotest.(check bool) "step empty" false (Sim.step sim)

(* Scheduling, cancelling and firing allocate nothing once the event
   queue's arena has grown: each workload runs once to warm up, then
   again under the counter.  The closure is static, so any word counted
   is the event core's own. *)
let noop () = ()

let minor_words_of f =
  f ();
  ignore (Gc.minor_words ());
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_event_core_allocates_nothing () =
  let sim = Sim.create () in
  let check name f = Alcotest.(check (float 0.)) name 0. (minor_words_of f) in
  (* Pre-schedule 10^4 events over ~10 ms, ties and far levels included,
     and count only the firing. *)
  let firing_words fire =
    let schedule () =
      let base = Simtime.to_ns (Sim.now sim) in
      for i = 1 to 10_000 do
        Sim.post_at sim (Simtime.of_ns (base + 1 + (i * 7_919 mod 10_000_000))) noop
      done;
      Simtime.of_ns (base + 10_000_000)
    in
    fire (schedule ());
    let horizon = schedule () in
    ignore (Gc.minor_words ());
    let w0 = Gc.minor_words () in
    fire horizon;
    Gc.minor_words () -. w0
  in
  Alcotest.(check (float 0.))
    "10^4 events fired by run_until" 0.
    (firing_words (fun horizon -> Sim.run_until sim horizon));
  Alcotest.(check (float 0.))
    "10^4 events fired by step" 0.
    (firing_words (fun _ -> while Sim.step sim do () done));
  check "10^3 at+cancel pairs" (fun () ->
      for _ = 1 to 1_000 do
        ignore (Sim.cancel sim (Sim.after sim (Simtime.us 5) noop))
      done);
  check "10^3 zero-delay posts, fired" (fun () ->
      for _ = 1 to 1_000 do
        Sim.post sim Simtime.span_zero noop
      done;
      Sim.run_until sim (Sim.now sim));
  ignore (Sim.every sim (Simtime.us 10) noop);
  check "100 ticks of a series" (fun () ->
      Sim.run_until sim (Simtime.add (Sim.now sim) (Simtime.ms 1)))

let test_tracelog () =
  let module T = Engine.Tracelog in
  let kill i = Engine.Trace_event.Kill { thread = Printf.sprintf "thread %d" i } in
  let tr = T.create ~enabled:true ~capacity:4 () in
  for i = 1 to 6 do
    T.event tr (Simtime.of_ns i) (kill i)
  done;
  let entries = T.entries tr in
  Alcotest.(check int) "capacity bound" 4 (List.length entries);
  (match entries with
  | first :: _ ->
      Alcotest.(check string) "oldest retained" "thread 3"
        (Engine.Trace_event.render first.T.event)
  | [] -> Alcotest.fail "no entries");
  Alcotest.(check int) "find by category" 4 (List.length (T.find tr ~category:"kill"));
  Alcotest.(check int) "find missing" 0 (List.length (T.find tr ~category:"nope"));
  T.set_enabled tr false;
  T.event tr Simtime.zero (kill 7);
  Alcotest.(check int) "disabled drops" 4 (List.length (T.entries tr));
  T.clear tr;
  Alcotest.(check int) "cleared" 0 (List.length (T.entries tr))

let test_series () =
  let module S = Engine.Series in
  let c1 = S.curve "one" and c2 = S.curve "two" in
  S.add_point c1 ~x:1. ~y:10.;
  S.add_point c1 ~x:2. ~y:20.;
  S.add_point c2 ~x:1. ~y:100.;
  Alcotest.(check (option (float 1e-9))) "y_at hit" (Some 20.) (S.y_at c1 2.);
  Alcotest.(check (option (float 1e-9))) "y_at miss" None (S.y_at c2 2.);
  let fig = S.figure ~title:"t" ~x_label:"x" ~y_label:"y" [ c1; c2 ] in
  let csv = S.figure_to_csv fig in
  Alcotest.(check bool) "csv header" true (String.length csv > 0 && String.sub csv 0 9 = "x,one,two");
  let table = S.table ~title:"tb" ~columns:[ "a"; "b" ] in
  S.add_row table [ "1"; "2" ];
  Alcotest.(check int) "rows" 1 (List.length (S.table_rows table));
  let raised =
    try
      S.add_row table [ "only-one" ];
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "row width checked" true raised

let test_figure_chart () =
  let module S = Engine.Series in
  let c = S.curve "only" in
  S.add_point c ~x:1. ~y:10.;
  S.add_point c ~x:2. ~y:20.;
  let fig = S.figure ~title:"t" ~x_label:"x" ~y_label:"y" [ c ] in
  let rendered = Format.asprintf "%a" S.pp_figure_chart fig in
  Alcotest.(check bool) "contains bars" true (String.contains rendered '#');
  (* The 20 bar must be about twice the 10 bar. *)
  let count_hashes line = String.fold_left (fun a ch -> if ch = '#' then a + 1 else a) 0 line in
  let lines = String.split_on_char '\n' rendered in
  let bars = List.filter (fun l -> String.contains l '#') lines in
  (match bars with
  | [ b10; b20 ] ->
      Alcotest.(check int) "proportional" (2 * count_hashes b10) (count_hashes b20)
  | _ -> Alcotest.fail "expected two bars")

let prop_sim_fires_sorted =
  QCheck2.Test.make ~name:"events fire in (time, insertion) order" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (int_range 0 1_000))
    (fun times ->
      let sim = Sim.create () in
      let fired = ref [] in
      List.iteri
        (fun i t -> ignore (Sim.at sim (Simtime.of_ns t) (fun () -> fired := (t, i) :: !fired)))
        times;
      Sim.run sim;
      let order = List.rev !fired in
      let sorted = List.stable_sort (fun (a, i) (b, j) -> if a = b then compare i j else compare a b)
          (List.mapi (fun i t -> (t, i)) times)
      in
      order = sorted)

let suite =
  [
    Alcotest.test_case "empty run" `Quick test_empty_run;
    Alcotest.test_case "timestamp ordering" `Quick test_ordering;
    Alcotest.test_case "FIFO at same instant" `Quick test_same_time_fifo;
    Alcotest.test_case "clock advances to fire times" `Quick test_clock_advances;
    Alcotest.test_case "cancellation" `Quick test_cancel;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "run_until horizon" `Quick test_run_until;
    Alcotest.test_case "past scheduling rejected" `Quick test_past_scheduling_rejected;
    Alcotest.test_case "negative delay fires now" `Quick test_after_negative_is_now;
    Alcotest.test_case "periodic timer" `Quick test_every;
    Alcotest.test_case "pending count" `Quick test_pending;
    Alcotest.test_case "single stepping" `Quick test_step;
    Alcotest.test_case "event core allocates nothing" `Quick test_event_core_allocates_nothing;
    Alcotest.test_case "tracelog ring buffer" `Quick test_tracelog;
    Alcotest.test_case "series and tables" `Quick test_series;
    Alcotest.test_case "figure chart rendering" `Quick test_figure_chart;
    QCheck_alcotest.to_alcotest prop_sim_fires_sorted;
  ]
