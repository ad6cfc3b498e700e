(* Tests for Engine.Rng and Engine.Dist. *)

module Rng = Engine.Rng
module Dist = Engine.Dist

let test_determinism () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" false (Rng.bits64 a = Rng.bits64 b)

let test_split_independent () =
  let parent = Rng.create ~seed:9 in
  let child = Rng.split parent in
  let x = Rng.bits64 child in
  let parent' = Rng.create ~seed:9 in
  let child' = Rng.split parent' in
  Alcotest.(check int64) "split deterministic" x (Rng.bits64 child')

let test_int_bounds () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    if v < 0 || v >= 17 then Alcotest.fail "Rng.int out of bounds"
  done

let test_int_invalid () =
  let rng = Rng.create ~seed:5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_float_bounds () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 3.5 in
    if v < 0. || v >= 3.5 then Alcotest.fail "Rng.float out of bounds"
  done

let test_uniformity_rough () =
  let rng = Rng.create ~seed:31 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < n / 20 || c > n / 5 then
        Alcotest.failf "bucket %d wildly off: %d" i c)
    buckets

let mean_of samples = Array.fold_left ( +. ) 0. samples /. float_of_int (Array.length samples)

let sample_n dist rng n = Array.init n (fun _ -> Dist.sample dist rng)

let test_constant () =
  let rng = Rng.create ~seed:1 in
  let d = Dist.constant 4.2 in
  Alcotest.(check (float 1e-9)) "sample" 4.2 (Dist.sample d rng);
  Alcotest.(check (float 1e-9)) "mean" 4.2 (Dist.mean d)

let test_uniform () =
  let rng = Rng.create ~seed:2 in
  let d = Dist.uniform ~lo:2. ~hi:4. in
  let samples = sample_n d rng 20_000 in
  Array.iter (fun v -> if v < 2. || v > 4. then Alcotest.fail "uniform out of range") samples;
  Alcotest.(check (float 0.05)) "empirical mean" 3. (mean_of samples);
  Alcotest.(check (float 1e-9)) "analytic mean" 3. (Dist.mean d)

let test_exponential () =
  let rng = Rng.create ~seed:3 in
  let d = Dist.exponential ~mean:5. in
  let samples = sample_n d rng 50_000 in
  Array.iter (fun v -> if v < 0. then Alcotest.fail "negative exponential") samples;
  Alcotest.(check (float 0.2)) "empirical mean" 5. (mean_of samples)

let test_pareto () =
  let rng = Rng.create ~seed:4 in
  let d = Dist.pareto ~shape:2.5 ~scale:1. in
  let samples = sample_n d rng 50_000 in
  Array.iter (fun v -> if v < 1. then Alcotest.fail "pareto below scale") samples;
  (* analytic mean = shape*scale/(shape-1) = 2.5/1.5 *)
  Alcotest.(check (float 0.1)) "analytic mean" (2.5 /. 1.5) (Dist.mean d);
  Alcotest.(check (float 0.15)) "empirical mean" (2.5 /. 1.5) (mean_of samples)

let test_pareto_infinite_mean () =
  let d = Dist.pareto ~shape:0.9 ~scale:1. in
  Alcotest.(check bool) "infinite mean" true (Float.is_integer (Dist.mean d) = false && Dist.mean d = infinity)

let test_zipf () =
  let rng = Rng.create ~seed:6 in
  let d = Dist.zipf ~n:10 ~s:1.0 in
  let counts = Array.make 11 0 in
  for _ = 1 to 50_000 do
    let rank = int_of_float (Dist.sample d rng) in
    if rank < 1 || rank > 10 then Alcotest.fail "zipf rank out of range";
    counts.(rank) <- counts.(rank) + 1
  done;
  Alcotest.(check bool) "rank 1 most popular" true (counts.(1) > counts.(2));
  Alcotest.(check bool) "rank 2 beats rank 5" true (counts.(2) > counts.(5))

let test_empirical () =
  let rng = Rng.create ~seed:7 in
  let d = Dist.empirical [| (1., 10.); (3., 20.) |] in
  let samples = sample_n d rng 40_000 in
  let tens = Array.fold_left (fun acc v -> if v = 10. then acc + 1 else acc) 0 samples in
  let frac = float_of_int tens /. 40_000. in
  Alcotest.(check (float 0.02)) "weights respected" 0.25 frac;
  Alcotest.(check (float 1e-9)) "mean" 17.5 (Dist.mean d)

let test_zipf_mean_monotone_in_s () =
  (* A steeper Zipf exponent concentrates mass on low ranks: the mean rank
     must fall as s grows. *)
  let mean s = Dist.mean (Dist.zipf ~n:100 ~s) in
  Alcotest.(check bool) "mean falls with s" true
    (mean 0.5 > mean 1.0 && mean 1.0 > mean 2.0)

let test_invalid_args () =
  Alcotest.check_raises "uniform hi<lo" (Invalid_argument "Dist.uniform: hi < lo") (fun () ->
      ignore (Dist.uniform ~lo:2. ~hi:1.));
  Alcotest.check_raises "exponential mean<=0"
    (Invalid_argument "Dist.exponential: mean must be positive") (fun () ->
      ignore (Dist.exponential ~mean:0.));
  Alcotest.check_raises "empirical empty" (Invalid_argument "Dist.empirical: empty") (fun () ->
      ignore (Dist.empirical [||]))

let test_sample_int () =
  let rng = Rng.create ~seed:8 in
  Alcotest.(check int) "rounds" 4 (Dist.sample_int (Dist.constant 4.4) rng);
  Alcotest.(check int) "clamps" 0 (Dist.sample_int (Dist.constant (-3.)) rng)

(* {1 The alias-method sampler (DESIGN.md §15)} *)

(* The Vose table build is correct iff the probability each index is
   returned — its own column's acceptance mass plus the rejection mass of
   every column aliased to it — equals its normalized weight, exactly. *)
let prop_alias_implies_pmf =
  QCheck2.Test.make ~name:"alias table implies the normalized pmf" ~count:300
    QCheck2.Gen.(list_size (int_range 1 60) (int_range 1 1000))
    (fun weights ->
      let cells =
        Array.of_list (List.mapi (fun i w -> (float_of_int w, float_of_int i)) weights)
      in
      let d = Dist.categorical_alias cells in
      let pmf = Option.get (Dist.pmf d) in
      let implied = Option.get (Dist.alias_probabilities d) in
      Array.iteri
        (fun i p ->
          if Float.abs (p -. implied.(i)) > 1e-9 then
            QCheck2.Test.fail_reportf "index %d: pmf %.12g, implied %.12g" i p implied.(i))
        pmf;
      true)

(* Chi-squared sanity at the production scale: 2e5 alias draws from
   Zipf(0.9) over 1e5 ranks, binned geometrically (so every bin has a
   healthy expected count), against the exact pmf.  The 1e-4 critical
   value for 16 degrees of freedom is ~44.5; a broken table build or a
   biased redirect blows through that by orders of magnitude. *)
let test_zipf_alias_chi_squared () =
  let n = 100_000 and draws = 200_000 in
  let d = Dist.zipf ~n ~s:0.9 in
  let pmf = Option.get (Dist.pmf d) in
  let bins = 17 in
  let bin_of i =
    let rec log2 v acc = if v <= 1 then acc else log2 (v / 2) (acc + 1) in
    min (bins - 1) (log2 (i + 1) 0)
  in
  let expected = Array.make bins 0. in
  Array.iteri (fun i p -> expected.(bin_of i) <- expected.(bin_of i) +. p) pmf;
  let observed = Array.make bins 0 in
  let rng = Rng.create ~seed:17 in
  for _ = 1 to draws do
    let i = Dist.sample_index d rng in
    if i < 0 || i >= n then Alcotest.fail "alias index out of range";
    observed.(bin_of i) <- observed.(bin_of i) + 1
  done;
  let chi2 = ref 0. in
  for b = 0 to bins - 1 do
    let e = expected.(b) *. float_of_int draws in
    if e > 0. then begin
      let diff = float_of_int observed.(b) -. e in
      chi2 := !chi2 +. (diff *. diff /. e)
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "chi-squared %.1f within the df=16 critical value" !chi2)
    true (!chi2 < 44.5)

(* The alias sampler and its CDF-inversion spec draw the same
   distribution: identical analytic means, and both empirical means land
   on it (s = 3 keeps the variance small so 5e4 draws converge; the mean
   is ~1.37 with a standard error of ~0.009, so 0.1 is a >10-sigma
   margin on fixed seeds). *)
let test_alias_vs_cdf_agree () =
  let alias = Dist.zipf ~n:1000 ~s:3.0 and cdf = Dist.zipf_cdf ~n:1000 ~s:3.0 in
  Alcotest.(check (float 1e-9)) "analytic means equal" (Dist.mean cdf) (Dist.mean alias);
  let empirical d seed =
    let rng = Rng.create ~seed in
    mean_of (sample_n d rng 50_000)
  in
  Alcotest.(check (float 0.1)) "alias empirical mean" (Dist.mean alias) (empirical alias 21);
  Alcotest.(check (float 0.1)) "cdf empirical mean" (Dist.mean cdf) (empirical cdf 22)

let test_zipf_zero_exponent_uniform () =
  (* s = 0 is the uniform categorical — the flash crowd's worst case. *)
  let d = Dist.zipf ~n:50 ~s:0. in
  let pmf = Option.get (Dist.pmf d) in
  Array.iter (fun p -> Alcotest.(check (float 1e-12)) "uniform pmf" 0.02 p) pmf

let test_zipf_rejects_non_finite_exponent () =
  (* A NaN exponent makes every weight NaN: the sampler would draw from
     garbage instead of failing. *)
  List.iter
    (fun s ->
      Alcotest.check_raises (Printf.sprintf "zipf s=%g" s)
        (Invalid_argument "Dist.zipf: s must be finite")
        (fun () -> ignore (Dist.zipf ~n:10 ~s));
      Alcotest.check_raises (Printf.sprintf "zipf_cdf s=%g" s)
        (Invalid_argument "Dist.zipf: s must be finite")
        (fun () -> ignore (Dist.zipf_cdf ~n:10 ~s)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_determinism;
    Alcotest.test_case "rng seeds differ" `Quick test_seeds_differ;
    Alcotest.test_case "rng split" `Quick test_split_independent;
    Alcotest.test_case "rng int bounds" `Quick test_int_bounds;
    Alcotest.test_case "rng int invalid" `Quick test_int_invalid;
    Alcotest.test_case "rng float bounds" `Quick test_float_bounds;
    Alcotest.test_case "rng rough uniformity" `Slow test_uniformity_rough;
    Alcotest.test_case "dist constant" `Quick test_constant;
    Alcotest.test_case "dist uniform" `Quick test_uniform;
    Alcotest.test_case "dist exponential" `Slow test_exponential;
    Alcotest.test_case "dist pareto" `Slow test_pareto;
    Alcotest.test_case "dist pareto infinite mean" `Quick test_pareto_infinite_mean;
    Alcotest.test_case "dist zipf" `Slow test_zipf;
    Alcotest.test_case "dist empirical" `Quick test_empirical;
    Alcotest.test_case "zipf mean monotone" `Quick test_zipf_mean_monotone_in_s;
    Alcotest.test_case "dist invalid args" `Quick test_invalid_args;
    Alcotest.test_case "dist sample_int" `Quick test_sample_int;
    QCheck_alcotest.to_alcotest prop_alias_implies_pmf;
    Alcotest.test_case "zipf alias chi-squared at 1e5 ranks" `Slow test_zipf_alias_chi_squared;
    Alcotest.test_case "alias vs cdf spec agree" `Quick test_alias_vs_cdf_agree;
    Alcotest.test_case "zipf s=0 is uniform" `Quick test_zipf_zero_exponent_uniform;
    Alcotest.test_case "zipf rejects a non-finite exponent" `Quick
      test_zipf_rejects_non_finite_exponent;
  ]
