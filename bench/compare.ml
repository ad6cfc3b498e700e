(* Compare two BENCH_*.json documents produced by [main.exe --json].

   Usage: compare.exe BASELINE.json CURRENT.json [--threshold F]
            [--alloc-threshold F] [--alloc-floor F]

   CURRENT may be "-" to read from stdin (used by the @bench-check alias,
   which pipes a fresh --json run against the committed baseline).

   Every metric is lower-is-better; a metric regresses when

     current > baseline * (1 + threshold)

   The default threshold of 0.75 (and the even looser 2.0 used by the
   @bench-check alias, whose --fast quotas make sub-microsecond metrics
   jittery) is deliberately loose: these are wall-clock measurements on
   whatever machine runs the check, so the gate is meant to catch
   order-of-magnitude fast-path regressions — a reintroduced O(n) walk
   shows up as 10-20x, not 2x.

   Allocation metrics (unit "mw/op", minor words per operation) are
   deterministic counts, not wall-clock samples, so they get their own
   much tighter gate: --alloc-threshold, default 0.10 — a 10% allocation
   growth on a hot path is a real regression even when the clock cannot
   see it.  A relative gate alone misfires on metrics that are already
   (amortised) zero — e.g. 0.09 -> 0.14 mw/op is a 1.5x "growth" that is
   really quantisation noise from amortised table doubling spread over a
   batch — so an allocation regression must also clear --alloc-floor
   (default 1.0): the absolute growth must be at least one word per
   operation.  Exit status is non-zero if any shared metric regresses.
   Metrics present on only one side are reported but never fail the
   check, so the baseline does not have to be regenerated in lockstep
   with benchmark additions. *)

(* {1 Benchmark documents} *)

let read_file path =
  if path = "-" then In_channel.input_all In_channel.stdin
  else In_channel.with_open_text path In_channel.input_all

let load path =
  let module J = Engine.Jsonx in
  let doc =
    match J.parse (read_file path) with
    | Ok doc -> doc
    | Error msg -> failwith (Printf.sprintf "%s: %s" path msg)
  in
  (match Option.bind (J.member "schema_version" doc) J.int_value with
  | Some 1 -> ()
  | _ -> failwith (path ^ ": unsupported or missing schema_version"));
  let label = Option.value (Option.bind (J.member "label" doc) J.string_value) ~default:"?" in
  let metrics =
    match J.member "metrics" doc with
    | Some (J.List ms) ->
        List.filter_map
          (fun m ->
            match
              ( Option.bind (J.member "name" m) J.string_value,
                Option.bind (J.member "value" m) J.float_value,
                Option.bind (J.member "unit" m) J.string_value )
            with
            | Some name, Some value, Some unit_ -> Some (name, (value, unit_))
            | _ -> None)
          ms
    | _ -> failwith (path ^ ": no metrics array")
  in
  (label, metrics)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let threshold = ref 0.75 in
  let alloc_threshold = ref 0.10 in
  let alloc_floor = ref 1.0 in
  let files = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f >= 0. -> threshold := f
        | _ -> prerr_endline "compare: --threshold expects a non-negative float"; exit 2);
        parse_args rest
    | "--alloc-threshold" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f >= 0. -> alloc_threshold := f
        | _ -> prerr_endline "compare: --alloc-threshold expects a non-negative float"; exit 2);
        parse_args rest
    | "--alloc-floor" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f >= 0. -> alloc_floor := f
        | _ -> prerr_endline "compare: --alloc-floor expects a non-negative float"; exit 2);
        parse_args rest
    | arg :: rest ->
        files := arg :: !files;
        parse_args rest
  in
  parse_args args;
  match List.rev !files with
  | [ base_path; cur_path ] ->
      let base_label, base = load base_path in
      let cur_label, cur = load cur_path in
      Printf.printf
        "benchmark compare: baseline %S vs current %S (threshold +%.0f%%, alloc +%.0f%%)\n"
        base_label cur_label (100. *. !threshold) (100. *. !alloc_threshold);
      let regressions = ref 0 in
      (* Per-unit speedup accumulators (sum of log(baseline/current) over
         shared metrics with positive values) for the geometric-mean
         summary, and the regressed metrics with their slowdown ratios so
         a failing run leads with its worst offenders. *)
      let units : (string * (float ref * int ref)) list ref = ref [] in
      let regressed : (string * float) list ref = ref [] in
      List.iter
        (fun (name, (bv, unit_)) ->
          match List.assoc_opt name cur with
          | None -> Printf.printf "  [only-baseline] %s\n" name
          | Some (cv, _) ->
              let is_alloc = unit_ = "mw/op" in
              let t = if is_alloc then !alloc_threshold else !threshold in
              let ratio = if bv > 0. then cv /. bv else Float.infinity in
              if bv > 0. && cv > 0. then begin
                let lsum, n =
                  match List.assoc_opt unit_ !units with
                  | Some cell -> cell
                  | None ->
                      let cell = (ref 0., ref 0) in
                      units := (unit_, cell) :: !units;
                      cell
                in
                lsum := !lsum +. log (bv /. cv);
                incr n
              end;
              let above_floor = (not is_alloc) || cv -. bv >= !alloc_floor in
              let verdict =
                if cv > bv *. (1. +. t) && above_floor then begin
                  incr regressions;
                  regressed := (name, ratio) :: !regressed;
                  "REGRESSED"
                end
                else if bv > cv *. (1. +. t) then "improved"
                else "ok"
              in
              Printf.printf "  [%-9s] %-60s %12.6g -> %12.6g %s (%.2fx)\n" verdict name bv cv
                unit_ ratio)
        base;
      List.iter
        (fun (name, _) ->
          if List.assoc_opt name base = None then Printf.printf "  [only-current] %s\n" name)
        cur;
      (* Geometric mean of baseline/current per unit: >1.00x means the
         current run is faster (or allocates less) on average. *)
      List.iter
        (fun (unit_, (lsum, n)) ->
          if !n > 0 then
            Printf.printf "geomean speedup [%s]: %.2fx over %d metric(s)\n" unit_
              (exp (!lsum /. float_of_int !n))
              !n)
        (List.rev !units);
      if !regressions > 0 then begin
        let worst = List.sort (fun (_, a) (_, b) -> compare b a) !regressed in
        let max_listed = 5 in
        Printf.printf "worst regression(s):\n";
        List.iteri
          (fun i (name, ratio) ->
            if i < max_listed then Printf.printf "  %.2fx slower  %s\n" ratio name)
          worst;
        if List.length worst > max_listed then
          Printf.printf "  ... and %d more\n" (List.length worst - max_listed);
        Printf.printf "%d metric(s) regressed beyond the threshold\n" !regressions;
        exit 1
      end
      else print_endline "no regressions"
  | _ ->
      prerr_endline
        "usage: compare.exe BASELINE.json CURRENT.json [--threshold F] [--alloc-threshold F] [--alloc-floor F]";
      exit 2
