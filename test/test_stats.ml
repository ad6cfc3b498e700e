(* Tests for Engine.Stats. *)

module Stats = Engine.Stats

let test_summary_basic () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.; 2.; 3.; 4.; 5. ];
  Alcotest.(check int) "count" 5 (Stats.Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 3. (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "variance" 2.5 (Stats.Summary.variance s);
  Alcotest.(check (float 1e-9)) "min" 1. (Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 5. (Stats.Summary.max s);
  Alcotest.(check (float 1e-9)) "total" 15. (Stats.Summary.total s)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  Alcotest.(check (float 1e-9)) "mean of empty" 0. (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "variance of empty" 0. (Stats.Summary.variance s)

let test_summary_merge () =
  let a = Stats.Summary.create () and b = Stats.Summary.create () in
  let both = Stats.Summary.create () in
  List.iter
    (fun x ->
      Stats.Summary.add (if x < 4. then a else b) x;
      Stats.Summary.add both x)
    [ 1.; 2.; 3.; 4.; 5.; 6. ];
  let merged = Stats.Summary.merge a b in
  Alcotest.(check int) "count" (Stats.Summary.count both) (Stats.Summary.count merged);
  Alcotest.(check (float 1e-9)) "mean" (Stats.Summary.mean both) (Stats.Summary.mean merged);
  Alcotest.(check (float 1e-6))
    "variance" (Stats.Summary.variance both) (Stats.Summary.variance merged)

let test_summary_merge_empty () =
  let a = Stats.Summary.create () and b = Stats.Summary.create () in
  Stats.Summary.add b 7.;
  let merged = Stats.Summary.merge a b in
  Alcotest.(check int) "count" 1 (Stats.Summary.count merged);
  Alcotest.(check (float 1e-9)) "mean" 7. (Stats.Summary.mean merged)

let test_reservoir_small () =
  let r = Stats.Reservoir.create ~capacity:100 (Engine.Rng.create ~seed:1) in
  List.iter (Stats.Reservoir.add r) [ 10.; 20.; 30.; 40. ];
  Alcotest.(check (float 1e-9)) "median" 25. (Stats.Reservoir.median r);
  Alcotest.(check (float 1e-9)) "p0" 10. (Stats.Reservoir.percentile r 0.);
  Alcotest.(check (float 1e-9)) "p100" 40. (Stats.Reservoir.percentile r 1.)

let test_reservoir_overflow () =
  let r = Stats.Reservoir.create ~capacity:64 (Engine.Rng.create ~seed:2) in
  for i = 1 to 10_000 do
    Stats.Reservoir.add r (float_of_int i)
  done;
  Alcotest.(check int) "count tracks stream" 10_000 (Stats.Reservoir.count r);
  let median = Stats.Reservoir.median r in
  (* The reservoir is a uniform sample: the median estimate should land
     roughly mid-stream. *)
  Alcotest.(check bool) "median plausible" true (median > 2_000. && median < 8_000.)

let test_reservoir_errors () =
  let r = Stats.Reservoir.create (Engine.Rng.create ~seed:3) in
  Alcotest.check_raises "empty" (Invalid_argument "Reservoir.percentile: empty") (fun () ->
      ignore (Stats.Reservoir.percentile r 0.5));
  Stats.Reservoir.add r 1.;
  Alcotest.check_raises "fraction range"
    (Invalid_argument "Reservoir.percentile: fraction out of range") (fun () ->
      ignore (Stats.Reservoir.percentile r 1.5))

let prop_summary_mean_bounded =
  QCheck2.Test.make ~name:"summary mean within [min,max]" ~count:300
    QCheck2.Gen.(list_size (int_range 1 50) (float_range (-1e6) 1e6))
    (fun xs ->
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.add s) xs;
      let m = Stats.Summary.mean s in
      m >= Stats.Summary.min s -. 1e-6 && m <= Stats.Summary.max s +. 1e-6)

let suite =
  [
    Alcotest.test_case "summary basic" `Quick test_summary_basic;
    Alcotest.test_case "summary empty" `Quick test_summary_empty;
    Alcotest.test_case "summary merge" `Quick test_summary_merge;
    Alcotest.test_case "summary merge empty" `Quick test_summary_merge_empty;
    Alcotest.test_case "reservoir small" `Quick test_reservoir_small;
    Alcotest.test_case "reservoir overflow" `Quick test_reservoir_overflow;
    Alcotest.test_case "reservoir errors" `Quick test_reservoir_errors;
    QCheck_alcotest.to_alcotest prop_summary_mean_bounded;
  ]
