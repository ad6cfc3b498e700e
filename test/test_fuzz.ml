(* Tests for the seeded scenario fuzzer: fixed seeds stay clean in every
   stack mode, runs are deterministic, and a planted accounting bug is
   caught and replayable. *)

let test_fixed_seeds_clean () =
  let outcomes =
    Fuzz.run_batch ~modes:Fuzz.all_modes ~seeds:[ 1; 2; 3 ] ()
  in
  Alcotest.(check int) "nine runs" 9 (List.length outcomes);
  List.iter
    (fun o ->
      Alcotest.(check (option string))
        (Printf.sprintf "seed %d %s clean" o.Fuzz.seed (Fuzz.mode_name o.Fuzz.mode))
        None o.Fuzz.violation;
      Alcotest.(check bool) "invariant sweeps ran" true (o.Fuzz.checks > 5))
    outcomes

let test_determinism () =
  let a = Fuzz.run_seed ~mode:Netsim.Stack.Rc ~seed:7 () in
  let b = Fuzz.run_seed ~mode:Netsim.Stack.Rc ~seed:7 () in
  Alcotest.(check string) "same scenario" a.Fuzz.scenario b.Fuzz.scenario;
  Alcotest.(check int) "same completions" a.Fuzz.completed b.Fuzz.completed;
  Alcotest.(check int) "same packets" a.Fuzz.packets b.Fuzz.packets;
  Alcotest.(check int) "same establishments" a.Fuzz.established b.Fuzz.established;
  Alcotest.(check int) "same sweeps" a.Fuzz.checks b.Fuzz.checks;
  (* A generated scenario is plain data: [=] raises on a closure, so equal
     records also show that none hides inside. *)
  List.iter
    (fun zipf ->
      List.iter
        (fun mode ->
          for seed = 1 to 30 do
            Alcotest.(check bool)
              (Printf.sprintf "seed %d %s%s generates one record" seed (Fuzz.mode_name mode)
                 (if zipf then " zipf" else ""))
              true
              (Fuzz.generate ~zipf ~inject:false ~seed mode
              = Fuzz.generate ~zipf ~inject:false ~seed mode)
          done)
        Fuzz.all_modes)
    [ false; true ];
  let sc = Fuzz.generate ~zipf:false ~inject:false ~seed:7 Netsim.Stack.Rc in
  Alcotest.(check bool) "one record runs to one outcome" true
    (Experiments.Scenario.run sc = Experiments.Scenario.run sc);
  List.iter
    (fun machines ->
      List.iter
        (fun mode ->
          for seed = 1 to 30 do
            let clean = Fuzz.generate_cluster ~inject:false ~machines ~seed mode in
            Alcotest.(check bool)
              (Printf.sprintf "seed %d %s machines=%d generates one cluster record" seed
                 (Fuzz.mode_name mode) machines)
              true
              (clean = Fuzz.generate_cluster ~inject:false ~machines ~seed mode);
            (* The victim is the last draw, so injecting moves nothing else. *)
            let injected = Fuzz.generate_cluster ~inject:true ~machines ~seed mode in
            Alcotest.(check bool)
              (Printf.sprintf "seed %d %s machines=%d injected differs only in its victim" seed
                 (Fuzz.mode_name mode) machines)
              true
              (clean.mischarge = None
              && injected.mischarge <> None
              && { injected with mischarge = None } = clean)
          done)
        Fuzz.all_modes)
    [ 2; 4 ];
  (* A measured window too, so its summaries and per-node readings are
     compared as well as the run totals. *)
  let sc =
    {
      (Fuzz.generate_cluster ~inject:false ~machines:4 ~seed:9 Netsim.Stack.Rc) with
      windows = [ Engine.Simtime.ms 60 ];
    }
  in
  let one = Experiments.Scenario.run_cluster ~shards:1 sc in
  Alcotest.(check (option string)) "cluster record clean" None one.violation;
  Alcotest.(check bool) "one cluster record runs to one outcome at shards 1 and 2" true
    (one = Experiments.Scenario.run_cluster ~shards:2 sc)

let test_injected_mischarge_caught () =
  let trace = Filename.temp_file "fuzz-inject" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists trace then Sys.remove trace)
    (fun () ->
      let o = Fuzz.run_seed ~inject:true ~trace_path:trace ~mode:Netsim.Stack.Rc ~seed:1 () in
      (match o.Fuzz.violation with
      | Some v ->
          Alcotest.(check bool) "cpu.conservation tripped" true
            (String.length v >= 26
            && String.sub v 0 26 = "invariant cpu.conservation")
      | None -> Alcotest.fail "planted mis-charge not caught");
      Alcotest.(check (option string)) "trace dumped" (Some trace) o.Fuzz.trace_file;
      Alcotest.(check bool) "trace non-empty JSONL" true
        (let ic = open_in trace in
         Fun.protect
           ~finally:(fun () -> close_in ic)
           (fun () -> String.length (input_line ic) > 2));
      (* The printed replay line reproduces the run. *)
      Alcotest.(check bool) "replay command names the seed and mode" true
        (let cmd = Fuzz.replay_command ~inject:true ~mode:o.Fuzz.mode ~seed:o.Fuzz.seed () in
         let contains needle hay =
           let nl = String.length needle and hl = String.length hay in
           let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
           scan 0
         in
         contains "--seed 1" cmd && contains "--mode rc" cmd && contains "--inject" cmd))

let test_zipf_family () =
  (* The large-Zipf corpus family: thousands of documents churning an
     undersized arena cache under the armed cache.bytes-consistency and
     LRU-structure laws — clean, deterministic, and marked in the
     scenario line and replay command. *)
  let a = Fuzz.run_seed ~zipf:true ~mode:Netsim.Stack.Rc ~seed:3 () in
  Alcotest.(check (option string)) "zipf seed clean" None a.Fuzz.violation;
  Alcotest.(check bool) "outcome flagged zipf" true a.Fuzz.zipf;
  Alcotest.(check bool) "invariant sweeps ran" true (a.Fuzz.checks > 5);
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i = i + nl <= hl && (String.sub hay i nl = needle || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "scenario names the corpus" true (contains " zipf docs=" a.Fuzz.scenario);
  Alcotest.(check bool) "replay command carries --zipf" true
    (contains "--zipf" (Fuzz.replay_command ~zipf:true ~mode:a.Fuzz.mode ~seed:a.Fuzz.seed ()));
  let b = Fuzz.run_seed ~zipf:true ~mode:Netsim.Stack.Rc ~seed:3 () in
  Alcotest.(check string) "deterministic scenario" a.Fuzz.scenario b.Fuzz.scenario;
  Alcotest.(check int) "deterministic completions" a.Fuzz.completed b.Fuzz.completed;
  Alcotest.(check int) "deterministic sweeps" a.Fuzz.checks b.Fuzz.checks;
  Alcotest.check_raises "cluster family rejects zipf"
    (Invalid_argument "Fuzz.run_seed: the zipf corpus family is a single-rig scenario")
    (fun () -> ignore (Fuzz.run_seed ~zipf:true ~machines:2 ~mode:Netsim.Stack.Rc ~seed:1 ()))

let test_mode_helpers () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "mode name round-trips" true
        (Fuzz.mode_of_string (Fuzz.mode_name m) = Some m))
    Fuzz.all_modes;
  Alcotest.(check bool) "unknown mode rejected" true (Fuzz.mode_of_string "bogus" = None)

let suite =
  [
    Alcotest.test_case "fixed seeds clean in all modes" `Quick test_fixed_seeds_clean;
    Alcotest.test_case "deterministic replay" `Quick test_determinism;
    Alcotest.test_case "injected mis-charge caught" `Quick test_injected_mischarge_caught;
    Alcotest.test_case "zipf corpus family" `Quick test_zipf_family;
    Alcotest.test_case "mode helpers" `Quick test_mode_helpers;
  ]
