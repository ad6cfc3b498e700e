(* Tests for the conservation-law invariant checker: the registry itself,
   the machine/scheduler/stack/cache laws, and the strict-memory mode. *)

module Simtime = Engine.Simtime
module Sim = Engine.Sim
module Invariant = Engine.Invariant
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Usage = Rescont.Usage
module Machine = Procsim.Machine
module Process = Procsim.Process
module Socket = Netsim.Socket
module Stack = Netsim.Stack
module Ipaddr = Netsim.Ipaddr

(* {1 Registry} *)

let test_registry_basics () =
  let t = Invariant.create () in
  let hits = ref 0 in
  Invariant.register t ~law:"always-ok" (fun () -> incr hits; Ok ());
  Invariant.register t ~law:"always-bad" (fun () -> Error "broken");
  Alcotest.(check (list string)) "names in order" [ "always-ok"; "always-bad" ]
    (Invariant.names t);
  let violations = Invariant.check t in
  Alcotest.(check int) "laws all ran" 1 !hits;
  Alcotest.(check int) "one violation" 1 (List.length violations);
  (match violations with
  | [ v ] ->
      Alcotest.(check string) "law name" "always-bad" v.Invariant.law;
      Alcotest.(check string) "detail" "broken" v.Invariant.detail
  | _ -> Alcotest.fail "expected exactly one violation");
  Alcotest.(check int) "checks counted" 1 (Invariant.checks_run t);
  Alcotest.(check int) "violations counted" 1 (Invariant.violations_seen t);
  Alcotest.(check bool) "check_exn raises" true
    (try Invariant.check_exn t; false with Invariant.Violation v -> v.Invariant.law = "always-bad")

let test_repeated_names_get_suffixes () =
  let t = Invariant.create () in
  List.iter (fun law -> Invariant.register t ~law (fun () -> Error law)) [ "x"; "y"; "x"; "x" ];
  Alcotest.(check (list string)) "names" [ "x"; "y"; "x#2"; "x#3" ] (Invariant.names t);
  Alcotest.(check (list string)) "violations name their law"
    [ "x"; "y"; "x#2"; "x#3" ]
    (List.map (fun v -> v.Invariant.law) (Invariant.check t))

let test_registry_arming () =
  let t = Invariant.create () in
  Alcotest.(check bool) "starts disarmed" false (Invariant.armed t);
  Invariant.arm t;
  Alcotest.(check bool) "armed" true (Invariant.armed t);
  Invariant.disarm t;
  Alcotest.(check bool) "disarmed" false (Invariant.armed t)

let test_raising_law_is_violation () =
  let t = Invariant.create () in
  Invariant.register t ~law:"total" (fun () -> failwith "partial check");
  match Invariant.check t with
  | [ v ] ->
      Alcotest.(check string) "law" "total" v.Invariant.law;
      Alcotest.(check bool) "detail mentions the exception" true
        (String.length v.Invariant.detail > 0)
  | _ -> Alcotest.fail "a raising law must report as a violation"

(* A failing helper must say what it said when every call, passing or
   not, formatted its message. *)
let test_helpers () =
  let error = function Error msg -> msg | Ok () -> Alcotest.fail "expected a violation" in
  Alcotest.(check bool) "equal_int ok" true (Invariant.equal_int ~what:"x" 3 3 = Ok ());
  Alcotest.(check string) "equal_int bad" "x: expected 3, got 5 (delta 2)"
    (error (Invariant.equal_int ~what:"x" 3 5));
  Alcotest.(check string) "equal_int bad, as Format printed it"
    (Format.asprintf "%s: expected %d, got %d (delta %d)" "cache cached_bytes" 7 4 (-3))
    (error (Invariant.equal_int ~what:"cache cached_bytes" 7 4));
  Alcotest.(check bool) "leq ok" true (Invariant.leq_int ~what:"q" 4 4 = Ok ());
  Alcotest.(check string) "leq bad" "q: 5 exceeds bound 4"
    (error (Invariant.leq_int ~what:"q" 5 4));
  Alcotest.(check bool) "non_negative ok" true (Invariant.non_negative ~what:"m" 0 = Ok ());
  Alcotest.(check string) "non_negative bad" "m: -1 is negative"
    (error (Invariant.non_negative ~what:"m" (-1)));
  Alcotest.(check bool) "require ok" true (Invariant.require true "law %d" 1 = Ok ());
  Alcotest.(check string) "require bad" "law 1 broke"
    (error (Invariant.require false "law %d %s" 1 "broke"))

(* A law runs on every sweep and almost always holds, so a passing helper
   must not allocate. *)
let test_passing_helpers_allocate_nothing () =
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let calls = 1_000 in
  let eq () =
    for i = 1 to calls do
      ignore (Sys.opaque_identity (Invariant.equal_int ~what:"cache cached_bytes" i i))
    done
  and leq () =
    for i = 1 to calls do
      ignore (Sys.opaque_identity (Invariant.leq_int ~what:"queue" i (i + 1)))
    done
  and nonneg () =
    for i = 1 to calls do
      ignore (Sys.opaque_identity (Invariant.non_negative ~what:"memory_bytes" i))
    done
  in
  Alcotest.(check (float 0.)) "passing equal_int" 0. (words eq);
  Alcotest.(check (float 0.)) "passing leq_int" 0. (words leq);
  Alcotest.(check (float 0.)) "passing non_negative" 0. (words nonneg)

(* {1 Machine laws} *)

let make_machine () =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let invariants = Invariant.create () in
  let policy = Sched.Multilevel.make ~invariants ~root () in
  let machine = Machine.create ~sim ~policy:(fun () -> policy) ~root ~invariants () in
  (sim, root, machine)

let test_cpu_conservation_holds () =
  let sim, root, machine = make_machine () in
  let a = Container.create ~parent:root ~name:"a" () in
  let b = Container.create ~parent:root ~name:"b" ~attrs:(Attrs.timeshare ~priority:30 ()) () in
  ignore (Machine.spawn machine ~name:"ta" ~container:a (fun () -> Machine.cpu (Simtime.ms 20)));
  ignore (Machine.spawn machine ~name:"tb" ~container:b (fun () -> Machine.cpu (Simtime.ms 30)));
  Machine.run_until machine (Simtime.add (Sim.now sim) (Simtime.ms 100));
  Alcotest.(check (list string)) "all laws hold on a busy machine" []
    (List.map (fun v -> v.Invariant.law) (Machine.check_invariants machine))

let test_mischarge_caught () =
  let sim, root, machine = make_machine () in
  ignore
    (Machine.spawn machine ~name:"work" ~container:(Machine.system_container machine) (fun () ->
         Machine.cpu (Simtime.ms 5)));
  (* Interrupt work billed to a container outside the root's subtree:
     busy time advances, the root rollup does not. *)
  let detached = Container.create_detached ~name:"outside" (Container.run root) in
  ignore
    (Sim.after sim (Simtime.ms 2) (fun () ->
         Machine.steal_time machine ~cost:(Simtime.us 70) ~charge:(`Container detached)));
  Machine.run_until machine (Simtime.add (Sim.now sim) (Simtime.ms 10));
  match Machine.check_invariants machine with
  | [] -> Alcotest.fail "cpu.conservation must catch the mis-charge"
  | v :: _ -> Alcotest.(check string) "first broken law" "cpu.conservation" v.Invariant.law

let test_armed_machine_raises_at_quiesce () =
  let sim, root, machine = make_machine () in
  Machine.arm_invariants machine;
  let detached = Container.create_detached ~name:"outside" (Container.run root) in
  ignore
    (Sim.after sim (Simtime.ms 1) (fun () ->
         Machine.steal_time machine ~cost:(Simtime.us 50) ~charge:(`Container detached)));
  Alcotest.(check bool) "run_until raises Violation" true
    (try
       Machine.run_until machine (Simtime.add (Sim.now sim) (Simtime.sec 1));
       false
     with Invariant.Violation v -> v.Invariant.law = "cpu.conservation")

let test_armed_machine_checks_periodically () =
  let sim, root, machine = make_machine () in
  Machine.arm_invariants ~interval:(Simtime.ms 5) machine;
  ignore
    (Machine.spawn machine ~name:"spin" ~container:root (fun () ->
         for _ = 1 to 20 do
           Machine.cpu (Simtime.ms 2)
         done));
  Machine.run_until machine (Simtime.add (Sim.now sim) (Simtime.ms 100));
  let sweeps = Invariant.checks_run (Machine.invariants machine) in
  Alcotest.(check bool) "periodic sweeps ran" true (sweeps >= 10)

(* {1 Strict memory mode} *)

let test_memory_clamp_vs_raise () =
  let u = Usage.create (Rescont.Ledger.create ()) in
  Usage.charge_memory u 100;
  Usage.charge_memory u (-250);
  Alcotest.(check int) "saturates at zero when lenient" 0 (Usage.memory_bytes u);
  let strict_arena = Rescont.Ledger.create () in
  Rescont.Ledger.set_strict strict_arena true;
  let u2 = Usage.create strict_arena in
  Usage.charge_memory u2 100;
  Alcotest.(check bool) "over-refund raises when strict" true
    (try Usage.charge_memory u2 (-250); false with Usage.Negative_memory _ -> true);
  Alcotest.(check int) "balance untouched by the failed charge" 100 (Usage.memory_bytes u2)

(* Arming is per run: arming machine A's invariants makes A's memory
   accounting strict and leaves machine B's, built afterwards in the
   same process and domain, saturating. *)
let test_strict_memory_is_per_run () =
  let _sim_a, root_a, machine_a = make_machine () in
  Machine.arm_invariants machine_a;
  let _sim_b, root_b, _machine_b = make_machine () in
  let b = Container.create ~parent:root_b ~name:"b" () in
  Container.charge_memory b 100;
  (match Container.charge_memory b (-250) with
  | () -> ()
  | exception Usage.Negative_memory _ -> Alcotest.fail "machine B raised: A's arming leaked");
  Alcotest.(check int) "B saturates at zero" 0 (Usage.memory_bytes (Container.usage b));
  Alcotest.(check int) "B's root too" 0 (Usage.memory_bytes (Container.subtree_usage root_b));
  let a = Container.create ~parent:root_a ~name:"a" () in
  Container.charge_memory a 100;
  Alcotest.(check bool) "A still raises" true
    (try Container.charge_memory a (-250); false with Usage.Negative_memory _ -> true)

(* {1 Stack and cache law registration} *)

let test_subsystem_laws_registered () =
  let _sim, _root, machine = make_machine () in
  let proc = Process.create machine ~name:"srv" () in
  let stack = Stack.create ~machine ~mode:Stack.Rc ~owner:(Process.default_container proc) () in
  ignore stack;
  let cache = Httpsim.File_cache.create () in
  Httpsim.File_cache.register_invariants cache (Machine.invariants machine);
  let names = Invariant.names (Machine.invariants machine) in
  List.iter
    (fun law ->
      Alcotest.(check bool) (law ^ " registered") true (List.mem law names))
    [
      "cpu.conservation"; "cpu.subtree-rollup"; "memory.non-negative";
      "sched.no-idle-starvation"; "sched.runq-counts"; "net.pending-consistency";
      "net.queue-bounds"; "net.memory-conservation"; "cache.bytes-consistency";
    ];
  (* A second stack on the same machine must not duplicate the laws. *)
  let stack2 = Stack.create ~machine ~mode:Stack.Rc ~owner:(Process.default_container proc) () in
  ignore stack2;
  let count name = List.length (List.filter (String.equal name) (Invariant.names (Machine.invariants machine))) in
  Alcotest.(check int) "net laws registered once" 1 (count "net.memory-conservation");
  Alcotest.(check (list string)) "all laws hold on the fresh rig" []
    (List.map (fun v -> v.Invariant.law) (Machine.check_invariants machine))

let test_net_laws_hold_under_traffic () =
  let sim, root, machine = make_machine () in
  let proc = Process.create machine ~name:"srv" () in
  let stack = Stack.create ~machine ~mode:Stack.Rc ~owner:(Process.default_container proc) () in
  let cache = Httpsim.File_cache.create () in
  Httpsim.File_cache.register_invariants cache (Machine.invariants machine);
  Httpsim.File_cache.add_document cache ~path:"/doc/1k" ~bytes:1024;
  Httpsim.File_cache.warm cache;
  let listen = Socket.make_unbound_listen ~port:80 (Container.run root) in
  let server =
    Httpsim.Event_server.create ~stack ~process:proc ~cache ~listens:[ listen ] ()
  in
  ignore (Httpsim.Event_server.start server);
  Machine.arm_invariants ~interval:(Simtime.ms 2) machine;
  let clients = Workload.Sclient.create ~stack ~port:80 ~path:"/doc/1k" ~count:3 () in
  Workload.Sclient.start clients;
  Machine.run_until machine (Simtime.add (Sim.now sim) (Simtime.ms 200));
  Alcotest.(check bool) "requests flowed" true (Workload.Sclient.completed clients > 10);
  Alcotest.(check int) "no violations across the run" 0
    (Invariant.violations_seen (Machine.invariants machine))

let suite =
  [
    Alcotest.test_case "registry basics" `Quick test_registry_basics;
    Alcotest.test_case "registry arming" `Quick test_registry_arming;
    Alcotest.test_case "repeated law names get suffixes" `Quick test_repeated_names_get_suffixes;
    Alcotest.test_case "raising law is a violation" `Quick test_raising_law_is_violation;
    Alcotest.test_case "law-writing helpers" `Quick test_helpers;
    Alcotest.test_case "passing helpers allocate nothing" `Quick
      test_passing_helpers_allocate_nothing;
    Alcotest.test_case "cpu conservation holds" `Quick test_cpu_conservation_holds;
    Alcotest.test_case "mis-charge caught" `Quick test_mischarge_caught;
    Alcotest.test_case "armed machine raises at quiesce" `Quick test_armed_machine_raises_at_quiesce;
    Alcotest.test_case "periodic sweeps" `Quick test_armed_machine_checks_periodically;
    Alcotest.test_case "memory clamp vs strict raise" `Quick test_memory_clamp_vs_raise;
    Alcotest.test_case "subsystem laws registered" `Quick test_subsystem_laws_registered;
    Alcotest.test_case "net laws hold under traffic" `Quick test_net_laws_hold_under_traffic;
    Alcotest.test_case "strict memory is per run" `Quick test_strict_memory_is_per_run;
  ]
