(* Tests for Procsim.Machine: effect threads, dispatching, charging,
   interrupt time-stealing, and Procsim.Process. *)

module Simtime = Engine.Simtime
module Sim = Engine.Sim
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Usage = Rescont.Usage
module Machine = Procsim.Machine
module Process = Procsim.Process

let make_machine ?(policy = `Multilevel) () =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let pol =
    match policy with
    | `Multilevel -> Sched.Multilevel.make ~root ()
    | `Timeshare -> Sched.Timeshare.make ()
  in
  let machine = Machine.create ~sim ~policy:(fun () -> pol) ~root () in
  (sim, root, machine)

let leaf root name = Container.create ~parent:root ~name ~attrs:(Attrs.timeshare ()) ()

let test_thread_runs_and_charges () =
  let _, root, machine = make_machine () in
  let c = leaf root "worker" in
  let done_flag = ref false in
  ignore
    (Machine.spawn machine ~name:"w" ~container:c (fun () ->
         Machine.cpu (Simtime.ms 5);
         done_flag := true));
  Machine.run_until machine (Simtime.of_ns 100_000_000);
  Alcotest.(check bool) "body completed" true !done_flag;
  Alcotest.(check int) "cpu charged" 5_000_000
    (Simtime.span_to_ns (Usage.cpu_total (Container.usage c)));
  Alcotest.(check int) "busy time" 5_000_000 (Simtime.span_to_ns (Machine.busy_time machine))

let test_kernel_user_split () =
  let _, root, machine = make_machine () in
  let c = leaf root "worker" in
  ignore
    (Machine.spawn machine ~name:"w" ~container:c (fun () ->
         Machine.cpu ~kernel:true (Simtime.ms 2);
         Machine.cpu ~kernel:false (Simtime.ms 3)));
  Machine.run_until machine (Simtime.of_ns 100_000_000);
  Alcotest.(check int) "kernel" 2_000_000
    (Simtime.span_to_ns (Usage.cpu_kernel (Container.usage c)));
  Alcotest.(check int) "user" 3_000_000 (Simtime.span_to_ns (Usage.cpu_user (Container.usage c)))

let test_wallclock_advances_with_cpu () =
  let sim, root, machine = make_machine () in
  let c = leaf root "worker" in
  let finished_at = ref Simtime.zero in
  ignore
    (Machine.spawn machine ~name:"w" ~container:c (fun () ->
         Machine.cpu (Simtime.ms 7);
         finished_at := Sim.now sim));
  Machine.run_until machine (Simtime.of_ns 100_000_000);
  Alcotest.(check int) "7ms of wall time" 7_000_000 (Simtime.to_ns !finished_at)

let test_two_threads_share () =
  let sim, root, machine = make_machine () in
  let a = leaf root "a" and b = leaf root "b" in
  let a_done = ref Simtime.zero and b_done = ref Simtime.zero in
  ignore
    (Machine.spawn machine ~name:"a" ~container:a (fun () ->
         Machine.cpu (Simtime.ms 10);
         a_done := Sim.now sim));
  ignore
    (Machine.spawn machine ~name:"b" ~container:b (fun () ->
         Machine.cpu (Simtime.ms 10);
         b_done := Sim.now sim));
  Machine.run_until machine (Simtime.of_ns 1_000_000_000);
  (* Both need 10ms of CPU; interleaved fairly both finish around 20ms. *)
  Alcotest.(check bool) "a finishes ~20ms" true
    (Simtime.to_ns !a_done >= 19_000_000 && Simtime.to_ns !a_done <= 21_000_000);
  Alcotest.(check bool) "b finishes ~20ms" true
    (Simtime.to_ns !b_done >= 19_000_000 && Simtime.to_ns !b_done <= 21_000_000)

let test_sleep () =
  let sim, root, machine = make_machine () in
  let c = leaf root "sleeper" in
  let woke = ref Simtime.zero in
  ignore
    (Machine.spawn machine ~name:"s" ~container:c (fun () ->
         Machine.sleep (Simtime.ms 3);
         woke := Sim.now sim));
  Machine.run_until machine (Simtime.of_ns 100_000_000);
  Alcotest.(check int) "slept 3ms" 3_000_000 (Simtime.to_ns !woke);
  Alcotest.(check int) "sleep consumes no cpu" 0
    (Simtime.span_to_ns (Usage.cpu_total (Container.usage c)))

let test_waitq_signal () =
  let _, root, machine = make_machine () in
  let c = leaf root "c" in
  let wq = Machine.Waitq.create ~name:"test" machine in
  let log = ref [] in
  ignore
    (Machine.spawn machine ~name:"waiter" ~container:c (fun () ->
         log := "before" :: !log;
         Machine.Waitq.wait wq;
         log := "after" :: !log));
  ignore
    (Machine.spawn machine ~name:"signaller" ~container:c (fun () ->
         Machine.cpu (Simtime.ms 1);
         Machine.Waitq.signal wq));
  Machine.run_until machine (Simtime.of_ns 100_000_000);
  Alcotest.(check (list string)) "wait then wake" [ "before"; "after" ] (List.rev !log);
  Alcotest.(check int) "no waiters left" 0 (Machine.Waitq.waiters wq)

let test_waitq_broadcast () =
  let _, root, machine = make_machine () in
  let c = leaf root "c" in
  let wq = Machine.Waitq.create machine in
  let woken = ref 0 in
  for i = 1 to 3 do
    ignore
      (Machine.spawn machine ~name:(Printf.sprintf "w%d" i) ~container:c (fun () ->
           Machine.Waitq.wait wq;
           incr woken))
  done;
  ignore
    (Machine.spawn machine ~name:"b" ~container:c (fun () ->
         Machine.cpu (Simtime.us 10);
         Machine.Waitq.broadcast wq));
  Machine.run_until machine (Simtime.of_ns 100_000_000);
  Alcotest.(check int) "all woken" 3 !woken

let test_rebind_changes_charging () =
  let _, root, machine = make_machine () in
  let a = leaf root "a" and b = leaf root "b" in
  ignore
    (Machine.spawn machine ~name:"w" ~container:a (fun () ->
         Machine.cpu (Simtime.ms 2);
         Machine.rebind machine (Machine.self ()) b;
         Machine.cpu (Simtime.ms 3)));
  Machine.run_until machine (Simtime.of_ns 100_000_000);
  Alcotest.(check int) "a charged before rebind" 2_000_000
    (Simtime.span_to_ns (Usage.cpu_total (Container.usage a)));
  Alcotest.(check int) "b charged after rebind" 3_000_000
    (Simtime.span_to_ns (Usage.cpu_total (Container.usage b)))

let test_steal_time_extends_slice () =
  let sim, root, machine = make_machine () in
  let c = leaf root "victim" in
  let finished = ref Simtime.zero in
  ignore
    (Machine.spawn machine ~name:"v" ~container:c (fun () ->
         Machine.cpu (Simtime.ms 1);
         finished := Sim.now sim));
  (* Interrupt strikes mid-slice. *)
  ignore
    (Sim.at sim (Simtime.of_ns 500_000) (fun () ->
         Machine.steal_time machine ~cost:(Simtime.us 200) ~charge:`Current_or_system));
  Machine.run_until machine (Simtime.of_ns 100_000_000);
  Alcotest.(check int) "slice stretched by stolen time" 1_200_000 (Simtime.to_ns !finished);
  (* Victim is charged for its own 1ms work and for the stolen 200us. *)
  Alcotest.(check int) "victim charged interrupt" 1_200_000
    (Simtime.span_to_ns (Usage.cpu_total (Container.usage c)))

let test_steal_time_while_idle () =
  let sim, root, machine = make_machine () in
  let c = leaf root "late" in
  ignore
    (Sim.at sim (Simtime.of_ns 0) (fun () ->
         Machine.steal_time machine ~cost:(Simtime.ms 2) ~charge:`Current_or_system));
  let started = ref Simtime.zero in
  ignore
    (Sim.at sim (Simtime.of_ns 1_000) (fun () ->
         ignore
           (Machine.spawn machine ~name:"l" ~container:c (fun () ->
                started := Sim.now sim;
                Machine.cpu (Simtime.us 1)))));
  Machine.run_until machine (Simtime.of_ns 100_000_000);
  Alcotest.(check bool) "dispatch delayed past irq busy period" true
    (Simtime.to_ns !started >= 2_000_000);
  (* Idle interrupt time is charged to the system (root) container. *)
  Alcotest.(check int) "system charged" 2_000_000
    (Simtime.span_to_ns (Usage.cpu_total (Container.usage root)))

let test_steal_time_explicit_container () =
  let _, root, machine = make_machine () in
  let c = leaf root "target" in
  Machine.steal_time machine ~cost:(Simtime.us 5) ~charge:(`Container c);
  Alcotest.(check int) "explicit charge" 5_000
    (Simtime.span_to_ns (Usage.cpu_total (Container.usage c)))

let test_yield_and_self () =
  let _, root, machine = make_machine () in
  let c = leaf root "c" in
  let name = ref "" in
  ignore
    (Machine.spawn machine ~name:"yielding" ~container:c (fun () ->
         Machine.yield ();
         name := Machine.thread_name (Machine.self ())));
  Machine.run_until machine (Simtime.of_ns 1_000_000);
  Alcotest.(check string) "self works after yield" "yielding" !name

let test_thread_exit_cleans_up () =
  let _, root, machine = make_machine () in
  let c = leaf root "c" in
  let thread = Machine.spawn machine ~name:"t" ~container:c (fun () -> Machine.cpu (Simtime.us 1)) in
  Machine.run_until machine (Simtime.of_ns 1_000_000);
  Alcotest.(check bool) "done" true (Machine.is_done thread);
  Alcotest.(check int) "binding released" 0 (Container.binding_count c);
  Alcotest.(check int) "nothing runnable" 0 (Machine.runnable_tasks machine)

let test_process_basics () =
  let _, _, machine = make_machine () in
  let proc = Process.create machine ~name:"app" () in
  Alcotest.(check bool) "default container exists" true
    (not (Container.is_destroyed (Process.default_container proc)));
  let seen = ref false in
  ignore (Process.spawn_thread proc ~name:"t" (fun () -> seen := true));
  Machine.run_until machine (Simtime.of_ns 1_000_000);
  Alcotest.(check bool) "thread ran" true !seen;
  Alcotest.(check int) "tracked" 1 (List.length (Process.threads proc))

let test_process_fork () =
  let _, _, machine = make_machine () in
  let parent = Process.create machine ~name:"parent" () in
  let root_of_parent = Container.parent (Process.default_container parent) in
  let d =
    Rescont.Ops.rc_get_handle (Process.descriptors parent) (Process.default_container parent)
  in
  let child_container = ref None in
  let child, _thread =
    Process.fork parent ~name:"child" (fun () ->
        child_container :=
          Some (Rescont.Binding.resource_binding (Machine.binding (Machine.self ()))))
  in
  Machine.run_until machine (Simtime.of_ns 1_000_000);
  Alcotest.(check bool) "pids differ" true (Process.pid child <> Process.pid parent);
  Alcotest.(check bool) "descriptor inherited" true
    (Rescont.Desc_table.lookup (Process.descriptors child) d == Process.default_container parent);
  Alcotest.(check bool) "child default container is fresh" true
    (Process.default_container child != Process.default_container parent);
  Alcotest.(check bool) "child container beside parent's" true
    (match (Container.parent (Process.default_container child), root_of_parent) with
    | Some a, Some b -> a == b
    | None, None -> true
    | (Some _ | None), _ -> false);
  Alcotest.(check bool) "child thread bound to its default" true
    (match !child_container with
    | Some c -> c == Process.default_container child
    | None -> false)

let test_quantum_preemption_interleaves () =
  let sim, root, machine = make_machine () in
  ignore sim;
  let a = leaf root "a" and b = leaf root "b" in
  let order = ref [] in
  let burn tag = fun () ->
    for _ = 1 to 3 do
      Machine.cpu (Simtime.ms 1);
      order := tag :: !order
    done
  in
  ignore (Machine.spawn machine ~name:"a" ~container:a (burn "a"));
  ignore (Machine.spawn machine ~name:"b" ~container:b (burn "b"));
  Machine.run_until machine (Simtime.of_ns 100_000_000);
  (* With 1ms quanta and fair WFQ, slices must alternate rather than run
     all of [a] before [b]. *)
  let seq = List.rev !order in
  Alcotest.(check int) "all slices" 6 (List.length seq);
  Alcotest.(check bool) "interleaved" true (seq <> [ "a"; "a"; "a"; "b"; "b"; "b" ])

let test_smp_parallel_progress () =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let machine =
    Machine.create ~cpus:2 ~sim ~policy:(fun () -> Sched.Multilevel.make ~root ()) ~root ()
  in
  let mk name =
    let c = leaf root name in
    let finished = ref Simtime.zero in
    ignore
      (Machine.spawn machine ~name ~container:c (fun () ->
           Machine.cpu (Simtime.ms 10);
           finished := Sim.now sim));
    finished
  in
  let a = mk "a" and b = mk "b" in
  Machine.run_until machine (Simtime.of_ns 1_000_000_000);
  (* Two processors: both 10ms jobs finish at ~10ms instead of ~20ms. *)
  Alcotest.(check bool) "a parallel" true (Simtime.to_ns !a <= 11_000_000);
  Alcotest.(check bool) "b parallel" true (Simtime.to_ns !b <= 11_000_000);
  Alcotest.(check int) "total work accounted" 20_000_000
    (Simtime.span_to_ns (Machine.busy_time machine))

let test_smp_single_thread_no_speedup () =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let machine =
    Machine.create ~cpus:4 ~sim ~policy:(fun () -> Sched.Multilevel.make ~root ()) ~root ()
  in
  let c = leaf root "solo" in
  let finished = ref Simtime.zero in
  ignore
    (Machine.spawn machine ~name:"solo" ~container:c (fun () ->
         Machine.cpu (Simtime.ms 10);
         finished := Sim.now sim));
  Machine.run_until machine (Simtime.of_ns 1_000_000_000);
  Alcotest.(check int) "one thread cannot use two processors" 10_000_000
    (Simtime.to_ns !finished)

let test_smp_irq_on_cpu0_only () =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let machine =
    Machine.create ~cpus:2 ~sim ~policy:(fun () -> Sched.Multilevel.make ~root ()) ~root ()
  in
  (* A long interrupt storm parks processor 0; a thread spawned after it
     still runs immediately on processor 1. *)
  Machine.steal_time machine ~cost:(Simtime.ms 5) ~charge:`Current_or_system;
  let c = leaf root "c" in
  let finished = ref Simtime.zero in
  ignore
    (Machine.spawn machine ~name:"t" ~container:c (fun () ->
         Machine.cpu (Simtime.ms 1);
         finished := Sim.now sim));
  Machine.run_until machine (Simtime.of_ns 100_000_000);
  Alcotest.(check bool) "second processor unaffected by irq storm" true
    (Simtime.to_ns !finished <= 1_100_000)

let test_kill () =
  let sim, root, machine = make_machine () in
  let c = leaf root "victim" in
  let progressed = ref 0 in
  let thread =
    Machine.spawn machine ~name:"victim" ~container:c (fun () ->
        let rec loop () =
          Machine.cpu (Simtime.ms 1);
          incr progressed;
          loop ()
        in
        loop ())
  in
  ignore (Sim.at sim (Simtime.of_ns 5_500_000) (fun () -> Machine.kill machine thread));
  Machine.run_until machine (Simtime.of_ns 100_000_000);
  Alcotest.(check bool) "made some progress" true (!progressed >= 4);
  Alcotest.(check bool) "stopped after kill" true (!progressed <= 6);
  Alcotest.(check bool) "done" true (Machine.is_done thread);
  Alcotest.(check int) "binding released" 0 (Container.binding_count c);
  (* The kill landed mid-slice; the slice-end charge must not put the
     resource binding back into the released scheduler-binding set. *)
  Alcotest.(check int) "scheduler set released" 0
    (Rescont.Binding.size (Machine.binding thread));
  Machine.kill machine thread (* idempotent *)

let test_process_exit_all () =
  let _, _, machine = make_machine () in
  let proc = Process.create machine ~name:"doomed" () in
  let count = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Process.spawn_thread proc ~name:"w" (fun () ->
           let rec loop () =
             Machine.cpu (Simtime.ms 1);
             incr count;
             loop ()
           in
           loop ()))
  done;
  Machine.run_until machine (Simtime.of_ns 5_000_000);
  Process.exit_all proc;
  let at_exit = !count in
  Machine.run_until machine (Simtime.of_ns 50_000_000);
  Alcotest.(check bool) "no progress after exit" true (!count - at_exit <= 3);
  Alcotest.(check int) "threads gone" 0 (List.length (Process.threads proc));
  Alcotest.(check bool) "default container destroyed" true
    (Container.is_destroyed (Process.default_container proc))

let test_tracing () =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let trace = Engine.Tracelog.create ~enabled:true () in
  let machine =
    Machine.create ~trace ~sim ~policy:(fun () -> Sched.Multilevel.make ~root ()) ~root ()
  in
  let a = leaf root "a" and b = leaf root "b" in
  ignore
    (Machine.spawn machine ~name:"traced" ~container:a (fun () ->
         Machine.cpu (Simtime.ms 1);
         Machine.rebind machine (Machine.self ()) b;
         Machine.cpu (Simtime.ms 1)));
  Machine.steal_time machine ~cost:(Simtime.us 10) ~charge:`Current_or_system;
  Machine.run_until machine (Simtime.of_ns 100_000_000);
  let module T = Engine.Tracelog in
  Alcotest.(check bool) "spawn traced" true (T.find trace ~category:"spawn" <> []);
  Alcotest.(check bool) "dispatch traced" true (List.length (T.find trace ~category:"dispatch") >= 2);
  Alcotest.(check bool) "rebind traced" true (T.find trace ~category:"rebind" <> []);
  Alcotest.(check bool) "irq traced" true (T.find trace ~category:"irq" <> []);
  (* Disabled by default: a machine without an explicit trace records nothing. *)
  let _, root2, machine2 = make_machine () in
  ignore (Machine.spawn machine2 ~name:"quiet" ~container:(leaf root2 "q") (fun () -> ()));
  Machine.run_until machine2 (Simtime.of_ns 1_000_000);
  Alcotest.(check int) "silent by default" 0
    (List.length (Engine.Tracelog.entries (Machine.trace machine2)))

let test_waitq_fifo_order () =
  let _, root, machine = make_machine () in
  let c = leaf root "c" in
  let wq = Machine.Waitq.create machine in
  let order = ref [] in
  for i = 1 to 3 do
    ignore
      (Machine.spawn machine ~name:(Printf.sprintf "w%d" i) ~container:c (fun () ->
           (* Deterministic arrival order into the wait queue. *)
           Machine.sleep (Simtime.us (i * 10));
           Machine.Waitq.wait wq;
           order := i :: !order))
  done;
  ignore
    (Machine.spawn machine ~name:"signaller" ~container:c (fun () ->
         Machine.sleep (Simtime.ms 1);
         Machine.Waitq.signal wq;
         Machine.sleep (Simtime.ms 1);
         Machine.Waitq.signal wq;
         Machine.sleep (Simtime.ms 1);
         Machine.Waitq.signal wq));
  Machine.run_until machine (Simtime.of_ns 100_000_000);
  Alcotest.(check (list int)) "longest waiter first" [ 1; 2; 3 ] (List.rev !order)

(* The wake order is the queue order, for [signal] and [broadcast] alike:
   one signal wakes the oldest waiter, then a broadcast wakes the other
   three oldest first (they share one container, whose run queue is FIFO,
   so the run order is the wake order). *)
let test_waitq_signal_then_broadcast_order () =
  let _, root, machine = make_machine () in
  let c = leaf root "c" in
  let wq = Machine.Waitq.create machine in
  let order = ref [] and seen = ref [] in
  for i = 1 to 4 do
    ignore
      (Machine.spawn machine ~name:(Printf.sprintf "w%d" i) ~container:c (fun () ->
           Machine.sleep (Simtime.us (i * 10));
           Machine.Waitq.wait wq;
           order := i :: !order))
  done;
  ignore
    (Machine.spawn machine ~name:"waker" ~container:c (fun () ->
         Machine.sleep (Simtime.ms 1);
         seen := Machine.Waitq.waiters wq :: !seen;
         Machine.Waitq.signal wq;
         seen := Machine.Waitq.waiters wq :: !seen;
         Machine.sleep (Simtime.ms 1);
         Machine.Waitq.broadcast wq;
         seen := Machine.Waitq.waiters wq :: !seen));
  Machine.run_until machine (Simtime.of_ns 100_000_000);
  Alcotest.(check (list int)) "signal, then broadcast, oldest first" [ 1; 2; 3; 4 ]
    (List.rev !order);
  Alcotest.(check (list int)) "waiter counts" [ 4; 3; 0 ] (List.rev !seen)

let test_kill_blocked_thread () =
  let _, root, machine = make_machine () in
  let c = leaf root "c" in
  let wq = Machine.Waitq.create machine in
  let resumed = ref false in
  let thread =
    Machine.spawn machine ~name:"blocked" ~container:c (fun () ->
        Machine.Waitq.wait wq;
        resumed := true)
  in
  Machine.run_until machine (Simtime.of_ns 1_000_000);
  Machine.kill machine thread;
  Machine.Waitq.signal wq;
  Machine.run_until machine (Simtime.of_ns 10_000_000);
  Alcotest.(check bool) "killed thread never resumes" false !resumed

(* --- Multiprocessor machines: one run-queue shard per CPU ------------ *)

let make_smp ?(cpus = 2) () =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let machine =
    Machine.create ~cpus ~sim ~policy:(fun () -> Sched.Multilevel.make ~root ()) ~root ()
  in
  (sim, root, machine)

let test_smp_on_idle_waits_for_all_cpus () =
  let sim, root, machine = make_smp ~cpus:2 () in
  let c = leaf root "worker" in
  let fired = ref [] in
  Machine.set_on_idle machine (fun () -> fired := Sim.now sim :: !fired);
  ignore
    (Machine.spawn machine ~name:"w" ~container:c (fun () -> Machine.cpu (Simtime.ms 10)));
  Machine.run_until machine (Simtime.of_ns 100_000_000);
  (* Processor 1 has nothing to run from t = 0, but the machine is not idle
     until processor 0's slice ends at 10ms: on_idle must never fire while
     any CPU is mid-slice. *)
  Alcotest.(check bool) "fired once truly idle" true (!fired <> []);
  List.iter
    (fun t ->
      Alcotest.(check bool) "never while another CPU is mid-slice" true
        (Simtime.to_ns t >= 10_000_000))
    !fired

let test_smp_per_cpu_utilization_bounded () =
  let _, root, machine = make_smp ~cpus:2 () in
  (* Overcommit: four always-runnable threads on two processors. *)
  for i = 1 to 4 do
    let c = leaf root (Printf.sprintf "c%d" i) in
    ignore
      (Machine.spawn machine ~name:(Printf.sprintf "t%d" i) ~container:c (fun () ->
           for _ = 1 to 40 do
             Machine.cpu (Simtime.ms 1)
           done))
  done;
  let horizon = Simtime.of_ns 50_000_000 in
  Machine.run_until machine horizon;
  for cpu = 0 to 1 do
    Alcotest.(check bool)
      (Printf.sprintf "cpu %d utilization <= 1.0" cpu)
      true
      (Simtime.span_to_ns (Machine.busy_time_on machine cpu) <= Simtime.to_ns horizon)
  done;
  Alcotest.(check int) "aggregate view = per-CPU sum"
    (Simtime.span_to_ns (Machine.busy_time machine))
    (Simtime.span_to_ns (Machine.busy_time_on machine 0)
    + Simtime.span_to_ns (Machine.busy_time_on machine 1))

let test_smp_irq_steal_on_cpu1 () =
  let sim, root, machine = make_smp ~cpus:2 () in
  (* A steered interrupt burst holds processor 1 and charges its busy time
     there, not on processor 0. *)
  Machine.steal_time machine ~cpu:1 ~cost:(Simtime.ms 2) ~charge:`Current_or_system;
  Alcotest.(check int) "stolen time lands on cpu 1" 2_000_000
    (Simtime.span_to_ns (Machine.busy_time_on machine 1));
  Alcotest.(check int) "cpu 0 untouched" 0
    (Simtime.span_to_ns (Machine.busy_time_on machine 0));
  (* A thread pinned to the held processor waits out the burst; an unpinned
     one runs immediately on processor 0. *)
  let pinned_start = ref Simtime.zero and free_start = ref Simtime.zero in
  ignore
    (Machine.spawn machine ~cpu:1 ~name:"pinned" ~container:(leaf root "p") (fun () ->
         pinned_start := Sim.now sim;
         Machine.cpu (Simtime.us 10)));
  ignore
    (Machine.spawn machine ~name:"free" ~container:(leaf root "f") (fun () ->
         free_start := Sim.now sim;
         Machine.cpu (Simtime.us 10)));
  Machine.run_until machine (Simtime.of_ns 100_000_000);
  Alcotest.(check bool) "pinned thread delayed past the irq hold" true
    (Simtime.to_ns !pinned_start >= 2_000_000);
  Alcotest.(check int) "unpinned thread unaffected" 0 (Simtime.to_ns !free_start)

let test_smp_kill_mid_slice () =
  let sim, root, machine = make_smp ~cpus:2 () in
  let a = leaf root "a" and b = leaf root "b" in
  let a_progress = ref 0 and b_done = ref Simtime.zero in
  let victim =
    Machine.spawn machine ~cpu:0 ~name:"victim" ~container:a (fun () ->
        let rec loop () =
          Machine.cpu (Simtime.ms 1);
          incr a_progress;
          loop ()
        in
        loop ())
  in
  ignore
    (Machine.spawn machine ~cpu:1 ~name:"worker" ~container:b (fun () ->
         Machine.cpu (Simtime.ms 10);
         b_done := Sim.now sim));
  ignore (Sim.at sim (Simtime.of_ns 3_500_000) (fun () -> Machine.kill machine victim));
  Machine.run_until machine (Simtime.of_ns 100_000_000);
  Alcotest.(check bool) "victim done" true (Machine.is_done victim);
  Alcotest.(check bool) "victim stopped mid-slice" true (!a_progress <= 4);
  Alcotest.(check int) "other processor keeps dispatching" 10_000_000
    (Simtime.to_ns !b_done);
  Alcotest.(check int) "binding released" 0 (Container.binding_count a)

let test_smp_rebind_on_cpu1 () =
  let _, root, machine = make_smp ~cpus:2 () in
  let a = leaf root "a" and b = leaf root "b" in
  ignore
    (Machine.spawn machine ~cpu:1 ~name:"w" ~container:a (fun () ->
         Machine.cpu (Simtime.ms 2);
         Machine.rebind machine (Machine.self ()) b;
         Machine.cpu (Simtime.ms 3)));
  Machine.run_until machine (Simtime.of_ns 100_000_000);
  Alcotest.(check int) "a charged before rebind" 2_000_000
    (Simtime.span_to_ns (Usage.cpu_total (Container.usage a)));
  Alcotest.(check int) "b charged after rebind" 3_000_000
    (Simtime.span_to_ns (Usage.cpu_total (Container.usage b)));
  Alcotest.(check int) "all busy time on cpu 1" 5_000_000
    (Simtime.span_to_ns (Machine.busy_time_on machine 1));
  Alcotest.(check int) "cpu 0 idle throughout" 0
    (Simtime.span_to_ns (Machine.busy_time_on machine 0))

(* Every processor's run-queue shard is its own policy: a factory that
   hands two processors the same one is refused. *)
let test_smp_one_policy_per_cpu () =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let shared = Sched.Multilevel.make ~root () in
  Alcotest.check_raises "shared policy refused"
    (Invalid_argument "Machine.create: processors 0 and 1 got the same policy") (fun () ->
      ignore (Machine.create ~cpus:2 ~sim ~policy:(fun () -> shared) ~root ()))

(* Random mixes of pinned/unpinned, CPU-burning, sleeping threads at 1, 2
   and 4 processors, with the conservation laws armed: the per-CPU busy
   counters must partition the global [cpu.conservation] total exactly. *)
let prop_per_cpu_busy_partitions_total =
  QCheck2.Test.make ~name:"per-CPU busy times partition the global total" ~count:40
    QCheck2.Gen.(
      pair (int_range 0 2) (list_size (int_range 1 10) (pair (int_range 0 4) (int_range 1 8))))
    (fun (cpus_sel, jobs) ->
      let cpus = [| 1; 2; 4 |].(cpus_sel) in
      let sim = Sim.create () in
      let root = Container.create_root () in
      let machine =
        Machine.create ~cpus ~sim ~policy:(fun () -> Sched.Multilevel.make ~root ()) ~root ()
      in
      Machine.arm_invariants machine;
      List.iteri
        (fun i (pin, ms) ->
          let c = leaf root (Printf.sprintf "c%d" i) in
          let cpu = if pin = 0 then None else Some ((pin - 1) mod cpus) in
          ignore
            (Machine.spawn machine ?cpu ~name:(Printf.sprintf "t%d" i) ~container:c
               (fun () ->
                 for _ = 1 to 3 do
                   Machine.cpu (Simtime.ms ms);
                   Machine.sleep (Simtime.ms 1)
                 done)))
        jobs;
      Machine.run_until machine (Simtime.of_ns 500_000_000);
      let sum = ref 0 in
      for i = 0 to cpus - 1 do
        sum := !sum + Simtime.span_to_ns (Machine.busy_time_on machine i)
      done;
      !sum = Simtime.span_to_ns (Machine.busy_time machine))

(* {1 The per-slice allocation budget}

   A dispatch cycle (pick, start the slice, charge it, resume the thread
   to its next effect) runs for every CPU slice, so the machine and its
   policy may allocate nothing of their own there: the only words are
   the effect's own payload and continuation.  The budget is not a
   constant: the test counts the effects its threads perform in the
   window and performs as many again under a bare deep handler. *)

let budget_span = Simtime.us 50

(* Every effect the bodies below perform answers unit, so one
   preallocated handler answers them all. *)
let answer_unit : ((unit, unit) Effect.Deep.continuation -> unit) option =
  Some (fun k -> Effect.Deep.continue k ())

let bare_handler : (unit, unit) Effect.Deep.handler =
  {
    retc = Fun.id;
    exnc = raise;
    effc =
      (fun (type a) (_ : a Effect.t) ->
        (Obj.magic answer_unit : ((a, unit) Effect.Deep.continuation -> unit) option));
  }

(* Minor words of [cpu_n] [Machine.cpu] and [wait_n] [Waitq.wait]
   performs, each answered at once. *)
let bare_round_trips wq ~cpu_n ~wait_n =
  let words = ref 0. in
  Effect.Deep.match_with
    (fun () ->
      ignore (Gc.minor_words ());
      let w0 = Gc.minor_words () in
      for _ = 1 to cpu_n do
        Machine.cpu budget_span
      done;
      for _ = 1 to wait_n do
        Machine.Waitq.wait wq
      done;
      words := Gc.minor_words () -. w0)
    () bare_handler;
  !words

type budget_run = { words : float; bare : float; slices : int; cpu_n : int; wait_n : int }

let slice_budget_run policy =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let pol =
    match policy with
    | `Multilevel -> Sched.Multilevel.make ~root ()
    | `Timeshare -> Sched.Timeshare.make ()
  in
  (* Binding pruning rebuilds a list every [prune_interval]; keep it out
     of the window. *)
  let machine =
    Machine.create ~prune_interval:(Simtime.sec 100) ~sim ~policy:(fun () -> pol) ~root ()
  in
  let group =
    Container.create ~parent:root ~name:"group" ~attrs:(Attrs.fixed_share ~share:0.5 ()) ()
  in
  let share =
    Container.create ~parent:root ~name:"share" ~attrs:(Attrs.fixed_share ~share:0.3 ()) ()
  in
  let cpu_n = ref 0 and wait_n = ref 0 in
  let burn () =
    incr cpu_n;
    Machine.cpu budget_span
  in
  let looper name container =
    ignore
      (Machine.spawn machine ~name ~container (fun () ->
           while true do
             burn ()
           done))
  in
  looper "a" (leaf group "a");
  looper "b" (leaf group "b");
  looper "c" share;
  let wq = Machine.Waitq.create machine in
  let pair = leaf root "pair" in
  ignore
    (Machine.spawn machine ~name:"signaller" ~container:pair (fun () ->
         while true do
           burn ();
           Machine.Waitq.signal wq
         done));
  ignore
    (Machine.spawn machine ~name:"waiter" ~container:pair (fun () ->
         while true do
           incr wait_n;
           Machine.Waitq.wait wq;
           burn ()
         done));
  (* Warm up: rings, scratch arrays and the wheel's arena reach their
     steady sizes. *)
  Machine.run_until machine (Simtime.of_ns 200_000_000);
  let dispatches () =
    match Engine.Metrics.value (Machine.metrics machine) "sched.dispatches" with
    | Some (Engine.Metrics.Counter n) -> n
    | _ -> Alcotest.fail "no sched.dispatches counter"
  in
  let cpu0 = !cpu_n and wait0 = !wait_n and slices0 = dispatches () in
  ignore (Gc.minor_words ());
  let w0 = Gc.minor_words () in
  Machine.run_until machine (Simtime.of_ns 1_200_000_000);
  let words = Gc.minor_words () -. w0 in
  let cpu_n = !cpu_n - cpu0 and wait_n = !wait_n - wait0 and slices = dispatches () - slices0 in
  { words; bare = bare_round_trips wq ~cpu_n ~wait_n; slices; cpu_n; wait_n }

let test_slice_allocation_budget policy () =
  let { words; bare; slices; cpu_n; wait_n } = slice_budget_run policy in
  Alcotest.(check bool) "thousands of slices" true (slices > 10_000);
  Alcotest.(check bool) "the pair blocked and woke" true (wait_n > 1_000);
  Alcotest.(check (float 0.))
    (Printf.sprintf "minor words per slice beyond the effects' own (%d slices, %d cpu, %d wait)"
       slices cpu_n wait_n)
    0.
    ((words -. bare) /. float_of_int slices)

(* Timeshare breaks badness ties in run-queue order, which follows
   container ids: the scenario's counts must not move when another
   machine ran before it in the process. *)
let test_slice_counts_hermetic () =
  let counts () =
    let r = slice_budget_run `Timeshare in
    (r.cpu_n, r.wait_n, r.slices)
  in
  let first = counts () in
  for runs = 1 to 3 do
    for _ = 1 to runs do
      ignore (slice_budget_run `Multilevel)
    done;
    Alcotest.(check (triple int int int))
      (Printf.sprintf "cpu performs, waits and slices after %d more multilevel runs" runs)
      first (counts ())
  done

let suite =
  [
    Alcotest.test_case "slice allocation budget, multilevel" `Quick
      (test_slice_allocation_budget `Multilevel);
    Alcotest.test_case "slice allocation budget, timeshare" `Quick
      (test_slice_allocation_budget `Timeshare);
    Alcotest.test_case "thread runs and charges" `Quick test_thread_runs_and_charges;
    Alcotest.test_case "kernel/user split" `Quick test_kernel_user_split;
    Alcotest.test_case "wall clock advances" `Quick test_wallclock_advances_with_cpu;
    Alcotest.test_case "two threads share CPU" `Quick test_two_threads_share;
    Alcotest.test_case "sleep" `Quick test_sleep;
    Alcotest.test_case "waitq signal" `Quick test_waitq_signal;
    Alcotest.test_case "waitq broadcast" `Quick test_waitq_broadcast;
    Alcotest.test_case "waitq signal then broadcast order" `Quick
      test_waitq_signal_then_broadcast_order;
    Alcotest.test_case "rebind changes charging" `Quick test_rebind_changes_charging;
    Alcotest.test_case "steal_time extends slice" `Quick test_steal_time_extends_slice;
    Alcotest.test_case "steal_time while idle" `Quick test_steal_time_while_idle;
    Alcotest.test_case "steal_time explicit container" `Quick test_steal_time_explicit_container;
    Alcotest.test_case "yield and self" `Quick test_yield_and_self;
    Alcotest.test_case "thread exit cleanup" `Quick test_thread_exit_cleans_up;
    Alcotest.test_case "process basics" `Quick test_process_basics;
    Alcotest.test_case "process fork" `Quick test_process_fork;
    Alcotest.test_case "quantum interleaving" `Quick test_quantum_preemption_interleaves;
    Alcotest.test_case "SMP parallel progress" `Quick test_smp_parallel_progress;
    Alcotest.test_case "SMP no speedup for one thread" `Quick test_smp_single_thread_no_speedup;
    Alcotest.test_case "SMP interrupts on cpu 0" `Quick test_smp_irq_on_cpu0_only;
    Alcotest.test_case "SMP on_idle waits for all CPUs" `Quick test_smp_on_idle_waits_for_all_cpus;
    Alcotest.test_case "SMP per-CPU utilization bounded" `Quick test_smp_per_cpu_utilization_bounded;
    Alcotest.test_case "SMP irq steal on cpu 1" `Quick test_smp_irq_steal_on_cpu1;
    Alcotest.test_case "SMP kill mid-slice" `Quick test_smp_kill_mid_slice;
    Alcotest.test_case "SMP rebind on cpu 1" `Quick test_smp_rebind_on_cpu1;
    QCheck_alcotest.to_alcotest prop_per_cpu_busy_partitions_total;
    Alcotest.test_case "tracing" `Quick test_tracing;
    Alcotest.test_case "kill" `Quick test_kill;
    Alcotest.test_case "process exit_all" `Quick test_process_exit_all;
    Alcotest.test_case "waitq FIFO order" `Quick test_waitq_fifo_order;
    Alcotest.test_case "kill blocked thread" `Quick test_kill_blocked_thread;
    Alcotest.test_case "timeshare slice counts are hermetic" `Quick test_slice_counts_hermetic;
    Alcotest.test_case "SMP one policy per processor" `Quick test_smp_one_policy_per_cpu;
  ]
