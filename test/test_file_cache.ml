(* The arena file cache (DESIGN.md §15) against its executable spec:
   QCheck lockstep over random register/lookup/warm sequences (with the
   [cache.bytes-consistency] law holding after every step), the law's
   mutation tests, the pinned eviction order (LRU with warm-stamping in
   registration order), and the registration-time bound that the old
   O(n^2) order-list append broke. *)

module File_cache = Httpsim.File_cache
module File_cache_ref = Spec.File_cache_ref
module Docset = Httpsim.Docset

let outcome_str = function
  | File_cache.Hit b -> Printf.sprintf "Hit %d" b
  | File_cache.Miss b -> Printf.sprintf "Miss %d" b
  | File_cache.Not_found_doc -> "Not_found_doc"

(* One shared path pool: interning is global and idempotent while
   residency is per-cache, so reusing paths across iterations is safe —
   and exactly what the production sweep does. *)
let pool = Array.init 16 (fun i -> Printf.sprintf "/lockstep/%d" i)

let law_violations cache =
  let registry = Engine.Invariant.create () in
  File_cache.register_invariants cache registry;
  Engine.Invariant.check registry

let prop_lockstep =
  QCheck2.Test.make ~name:"arena cache lockstep with File_cache_ref" ~count:400
    QCheck2.Gen.(
      pair (int_range 1 40)
        (list_size (int_range 1 120) (pair (int_bound 9) (pair (int_bound 15) (int_bound 15)))))
    (fun (capacity_units, ops) ->
      (* Capacities 256B-10KB against sizes 0-3.75KB: some corpora fit
         entirely, some churn, and some documents never fit at all. *)
      let capacity_bytes = capacity_units * 256 in
      let arena = File_cache.create ~capacity_bytes () in
      let spec = File_cache_ref.create ~capacity_bytes () in
      let registered = ref 0 in
      let agree what a b =
        if a <> b then QCheck2.Test.fail_reportf "%s: arena %d, spec %d" what a b
      in
      List.iter
        (fun (op, (i, b)) ->
          (match op with
          | 0 | 1 when !registered < Array.length pool ->
              let path = pool.(!registered) and bytes = b * 256 in
              incr registered;
              File_cache.add_document arena ~path ~bytes;
              File_cache_ref.add_document spec ~path ~bytes
          | 2 ->
              File_cache.warm arena;
              File_cache_ref.warm spec
          | _ ->
              (* [i] ranges over the whole pool, so unregistered paths
                 (Not_found_doc) stay covered. *)
              let path = pool.(i) in
              let oa = File_cache.lookup arena ~path in
              let os = File_cache_ref.lookup spec ~path in
              if oa <> os then
                QCheck2.Test.fail_reportf "lookup %s: arena %s, spec %s" path (outcome_str oa)
                  (outcome_str os));
          agree "hits" (File_cache.hits arena) (File_cache_ref.hits spec);
          agree "misses" (File_cache.misses arena) (File_cache_ref.misses spec);
          agree "cached_bytes" (File_cache.cached_bytes arena) (File_cache_ref.cached_bytes spec);
          (match law_violations arena with
          | [] -> ()
          | v :: _ -> QCheck2.Test.fail_reportf "%s: %s" v.Engine.Invariant.law v.detail);
          Array.iter
            (fun path ->
              let a = File_cache.is_cached arena ~path
              and s = File_cache_ref.is_cached spec ~path in
              if a <> s then QCheck2.Test.fail_reportf "is_cached %s: arena %b, spec %b" path a s)
            pool)
        ops;
      true)

(* {1 Mutation tests: every planted fault must trip the law}

   Eight documents of 1000-1007 bytes under a 5 KB budget: warm leaves
   the last five resident, then a miss on /law/1 evicts /law/3, so the
   list is 1, 7, 6, 5, 4 (MRU first) and 0, 2, 3 are registered but
   uncached.  Each fault names the check expected to report it: the walk
   ("LRU list corrupt"), the popcount ("residency bits") or the byte
   total ("cached_bytes"). *)

let law_cache () =
  let cache = File_cache.create ~capacity_bytes:(5 * 1024) () in
  for i = 0 to 7 do
    File_cache.add_document cache ~path:(Printf.sprintf "/law/%d" i) ~bytes:(1000 + i)
  done;
  File_cache.warm cache;
  ignore (File_cache.lookup cache ~path:"/law/1");
  cache

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  at 0

let test_law_holds_on_healthy_cache () =
  let cache = law_cache () in
  Alcotest.(check (list bool)) "residency" [ false; true; false; false; true; true; true; true ]
    (List.init 8 (fun i -> File_cache.is_cached cache ~path:(Printf.sprintf "/law/%d" i)));
  Alcotest.(check int) "no violation" 0 (List.length (law_violations cache))

let mutation_test name fault ~caught_by =
  Alcotest.test_case ("law catches " ^ name) `Quick (fun () ->
      let cache = law_cache () in
      File_cache.plant_fault_for_testing cache fault;
      match law_violations cache with
      | [ v ] ->
          Alcotest.(check string) "law" "cache.bytes-consistency" v.Engine.Invariant.law;
          if not (contains v.detail caught_by) then
            Alcotest.failf "expected a %S report, got %S" caught_by v.detail
      | [] -> Alcotest.failf "planted fault (%s) went undetected" name
      | _ -> Alcotest.fail "expected exactly one violation")

(* A rig registers its own small cache and an experiment then registers
   its corpus cache in the same registry: a fault in the second must be
   reported under a name of its own. *)
let test_second_cache_law_named_apart () =
  let registry = Engine.Invariant.create () in
  let rig_cache = law_cache () and corpus_cache = law_cache () in
  File_cache.register_invariants rig_cache registry;
  File_cache.register_invariants corpus_cache registry;
  File_cache.plant_fault_for_testing corpus_cache (File_cache.Cached_bytes_off_by 1);
  Alcotest.(check (list string)) "violated laws" [ "cache.bytes-consistency#2" ]
    (List.map (fun v -> v.Engine.Invariant.law) (Engine.Invariant.check registry))

let mutation_tests =
  let walk = "LRU list corrupt" and popcount = "residency bits" in
  File_cache.
    [
      mutation_test "a wrong cached_bytes" (Cached_bytes_off_by 1) ~caught_by:"cached_bytes";
      mutation_test "a resident count too high" (Resident_off_by 1) ~caught_by:walk;
      mutation_test "a resident count too low" (Resident_off_by (-1)) ~caught_by:walk;
      mutation_test "a broken back-link" Broken_back_link ~caught_by:walk;
      mutation_test "a cycle" Cycle ~caught_by:walk;
      mutation_test "a head mismatch" Head_mismatch ~caught_by:walk;
      mutation_test "a tail mismatch" Tail_mismatch ~caught_by:walk;
      mutation_test "a resident slot missing from the list" Unlisted_resident
        ~caught_by:popcount;
      mutation_test "a non-resident slot on the list" Listed_nonresident ~caught_by:walk;
      mutation_test "a stray bit at used" (Stray_bit 0) ~caught_by:popcount;
      mutation_test "a stray bit past the bitmap" (Stray_bit 1000) ~caught_by:popcount;
    ]

(* Warm stamps loads in registration order, so after a warm the LRU order
   IS the registration order — eviction victims are pinned, identically
   in both implementations, where the old clock-only scheme fell back to
   hash-iteration order on equal stamps. *)
let test_eviction_order_pinned () =
  let paths = Array.init 4 (fun i -> Printf.sprintf "/evict-pin/%d" i) in
  let check_impl name is_cached_of =
    (* capacity 2 docs; warm walks a,b,c,d: c evicts a, d evicts b *)
    Alcotest.(check (list bool))
      (name ^ ": warm over capacity leaves the registration tail")
      [ false; false; true; true ] (is_cached_of ())
  in
  let arena_state () =
    let c = File_cache.create ~capacity_bytes:2048 () in
    Array.iter (fun path -> File_cache.add_document c ~path ~bytes:1024) paths;
    File_cache.warm c;
    Array.to_list (Array.map (fun path -> File_cache.is_cached c ~path) paths)
  in
  let spec_state () =
    let c = File_cache_ref.create ~capacity_bytes:2048 () in
    Array.iter (fun path -> File_cache_ref.add_document c ~path ~bytes:1024) paths;
    File_cache_ref.warm c;
    Array.to_list (Array.map (fun path -> File_cache_ref.is_cached c ~path) paths)
  in
  check_impl "arena" arena_state;
  check_impl "spec" spec_state;
  (* After the warm the LRU list is c,d (c older): a miss on a must evict
     c, not d, in both implementations. *)
  let arena = File_cache.create ~capacity_bytes:2048 () in
  Array.iter (fun path -> File_cache.add_document arena ~path ~bytes:1024) paths;
  File_cache.warm arena;
  ignore (File_cache.lookup arena ~path:paths.(0));
  Alcotest.(check bool) "arena: LRU victim is the warm-order head" false
    (File_cache.is_cached arena ~path:paths.(2));
  Alcotest.(check bool) "arena: MRU survivor stays" true
    (File_cache.is_cached arena ~path:paths.(3));
  let spec = File_cache_ref.create ~capacity_bytes:2048 () in
  Array.iter (fun path -> File_cache_ref.add_document spec ~path ~bytes:1024) paths;
  File_cache_ref.warm spec;
  ignore (File_cache_ref.lookup spec ~path:paths.(0));
  Alcotest.(check bool) "spec: LRU victim is the warm-order head" false
    (File_cache_ref.is_cached spec ~path:paths.(2));
  Alcotest.(check bool) "spec: MRU survivor stays" true
    (File_cache_ref.is_cached spec ~path:paths.(3))

(* Registration must be far from quadratic: 10^5 documents in both
   implementations in CPU seconds, not minutes (the seed's
   [order @ [path]] append made this O(n^2) — ~10^10 list cells). *)
let test_registration_bounded () =
  let docs = 100_000 in
  let t0 = Sys.time () in
  let arena = File_cache.create ~capacity_bytes:(4 * 1024 * 1024) () in
  for i = 0 to docs - 1 do
    File_cache.add_doc arena ~doc:(Docset.intern (Printf.sprintf "/regtime/%d" i)) ~bytes:1024
  done;
  File_cache.warm arena;
  let spec = File_cache_ref.create ~capacity_bytes:(4 * 1024 * 1024) () in
  for i = 0 to docs - 1 do
    File_cache_ref.add_document spec ~path:(Printf.sprintf "/regtime/%d" i) ~bytes:1024
  done;
  let elapsed = Sys.time () -. t0 in
  Alcotest.(check int) "arena registered all" docs (File_cache.registered arena);
  Alcotest.(check bool)
    (Printf.sprintf "1e5 registrations bounded (%.2fs cpu)" elapsed)
    true (elapsed < 5.);
  (* And lookups at that population stay live: hit the warm head, miss
     past the capacity horizon. *)
  match File_cache.lookup arena ~path:"/regtime/99999" with
  | File_cache.Hit _ | File_cache.Miss _ -> ()
  | File_cache.Not_found_doc -> Alcotest.fail "registered doc reported unknown"

let suite =
  [
    QCheck_alcotest.to_alcotest prop_lockstep;
    Alcotest.test_case "law holds on a healthy cache" `Quick test_law_holds_on_healthy_cache;
    Alcotest.test_case "eviction order pinned (warm = registration order)" `Quick
      test_eviction_order_pinned;
    Alcotest.test_case "1e5-doc registration bounded" `Quick test_registration_bounded;
    Alcotest.test_case "second cache's law named apart" `Quick test_second_cache_law_named_apart;
  ]
  @ mutation_tests
