(* Tests for the Sched library: Decay, Runq and the four policies. *)

module Simtime = Engine.Simtime
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Binding = Rescont.Binding
module Task = Sched.Task
module Decay = Spec.Decay
module Runq = Sched.Runq

let fixed share = Attrs.fixed_share ~share ()
let ts priority = Attrs.timeshare ~priority ()

(* [Policy.pick] and [Runq.front] answer [Task.none] for "no task"; the
   tests read them as options. *)
let some_task t = if Task.is_none t then None else Some t

(* {1 Decay} *)

let test_decay_accumulates () =
  let d = Decay.create ~tau:(Simtime.sec 1) in
  Decay.add d ~now:Simtime.zero (Simtime.ms 10);
  Alcotest.(check (float 1.)) "initial" 10e6 (Decay.read d ~now:Simtime.zero)

let test_decay_halves () =
  let d = Decay.create ~tau:(Simtime.sec 1) in
  Decay.add d ~now:Simtime.zero (Simtime.ms 10);
  let later = Simtime.add Simtime.zero (Simtime.sec 1) in
  let v = Decay.read d ~now:later in
  Alcotest.(check (float 1e4)) "1/e after tau" (10e6 /. Float.exp 1.) v

let test_decay_monotone_without_charges () =
  let d = Decay.create ~tau:(Simtime.ms 100) in
  Decay.add d ~now:Simtime.zero (Simtime.ms 5);
  let v1 = Decay.read d ~now:(Simtime.of_ns 50_000_000) in
  let v2 = Decay.read d ~now:(Simtime.of_ns 100_000_000) in
  Alcotest.(check bool) "decreasing" true (v2 < v1);
  Decay.reset d;
  Alcotest.(check (float 1e-9)) "reset" 0. (Decay.read d ~now:(Simtime.of_ns 200_000_000))

(* {1 Runq} *)

let setup_leaves n =
  let root = Container.create_root () in
  let parent = Container.create ~parent:root ~attrs:(fixed 1.0) () in
  (root, parent, List.init n (fun i -> Container.create ~parent ~name:(Printf.sprintf "l%d" i) ()))

let task_on container name = Task.create ~name (Binding.create ~now:Simtime.zero container)

let test_runq_basic () =
  let _, _, leaves = setup_leaves 2 in
  let a = List.nth leaves 0 and b = List.nth leaves 1 in
  let q = Runq.create () in
  let t1 = task_on a "t1" and t2 = task_on a "t2" and t3 = task_on b "t3" in
  Runq.enqueue q t1;
  Runq.enqueue q t2;
  Runq.enqueue q t3;
  Runq.enqueue q t1 (* idempotent *);
  let front_is q c t = match some_task (Runq.front q c) with Some x -> Task.equal x t | None -> false in
  Alcotest.(check int) "count" 3 (Runq.count q);
  Alcotest.(check bool) "front a" true (front_is q a t1);
  Runq.rotate q a;
  Alcotest.(check bool) "rotated" true (front_is q a t2);
  Runq.dequeue q t2;
  Alcotest.(check bool) "after dequeue" true (front_is q a t1);
  Runq.dequeue q t2 (* idempotent *);
  Alcotest.(check int) "count after" 2 (Runq.count q)

(* Timeshare, lottery and stride break ties in the order [iter_busy] and
   [containers_with_work] visit busy containers, so that order is part of
   the simulated result: creation order within the run.  1100 containers
   queue in shuffled order and a third drain again; [iter_busy] must visit
   the rest in ascending id and [containers_with_work] list them in
   descending id. *)
let test_runq_busy_order_is_creation_order () =
  let _, _, leaves = setup_leaves 1100 in
  let cs = Array.of_list leaves in
  let rng = Engine.Rng.create ~seed:5 in
  for i = Array.length cs - 1 downto 1 do
    let j = Engine.Rng.int rng (i + 1) in
    let c = cs.(i) in
    cs.(i) <- cs.(j);
    cs.(j) <- c
  done;
  let q = Runq.create () in
  let tasks =
    Array.map
      (fun c ->
        let t = task_on c "t" in
        Runq.enqueue q t;
        t)
      cs
  in
  Array.iteri (fun i t -> if i mod 3 = 0 then Runq.dequeue q t) tasks;
  let ids = List.map Container.id in
  let ascending = List.sort Int.compare (ids (List.filter (Runq.container_has_work q) leaves)) in
  Alcotest.(check int) "two thirds still queued" 733 (List.length ascending);
  Alcotest.(check (list int)) "containers_with_work" (List.rev ascending)
    (ids (Runq.containers_with_work q));
  let visited = ref [] in
  Runq.iter_busy q (fun c -> visited := c :: !visited);
  Alcotest.(check (list int)) "iter_busy" ascending (List.rev (ids !visited));
  Alcotest.(check (result unit string)) "validate" (Ok ()) (Runq.validate q)

let test_runq_requeue_moves () =
  let _, _, leaves = setup_leaves 2 in
  let a = List.nth leaves 0 and b = List.nth leaves 1 in
  let q = Runq.create () in
  let t = task_on a "t" in
  Runq.enqueue q t;
  Binding.set_resource_binding t.Task.binding ~now:Simtime.zero b;
  Runq.requeue q t;
  Alcotest.(check bool) "left a" false (Runq.container_has_work q a);
  Alcotest.(check bool) "joined b" true
    (match some_task (Runq.front q b) with Some x -> Task.equal x t | None -> false)

let test_runq_subtree () =
  let root, parent, leaves = setup_leaves 1 in
  let q = Runq.create () in
  Alcotest.(check bool) "empty subtree" false (Runq.subtree_has_work q root);
  Runq.enqueue q (task_on (List.hd leaves) "t");
  Alcotest.(check bool) "leaf work visible at root" true (Runq.subtree_has_work q root);
  Alcotest.(check bool) "and at parent" true (Runq.subtree_has_work q parent)

(* The [sched.runq-counts] law rebuilds every busy-children set from the
   container tree and the recounted subtrees, and reports each corruption
   a bug could leave: a busy child missing, two in the wrong order, an
   idle child listed. *)
let test_runq_busy_set_law () =
  let check fault expected =
    let root = Container.create_root () in
    let parent = Container.create ~parent:root ~name:"p" ~attrs:(fixed 1.0) () in
    let a = Container.create ~parent ~name:"a" () in
    let _b = Container.create ~parent ~name:"b" () in
    let c = Container.create ~parent ~name:"c" () in
    let q = Runq.create () in
    Runq.enqueue q (task_on a "ta");
    Runq.enqueue q (task_on c "tc");
    Alcotest.(check (result unit string)) "healthy" (Ok ()) (Runq.validate q);
    Runq.plant_fault_for_testing q parent fault;
    Alcotest.(check (result unit string)) "reported" (Error expected) (Runq.validate q)
  in
  check Runq.Drop_busy_child "busy children of p: cached [a], recomputed [a; c]";
  check Runq.Swap_busy_children "busy children of p: cached [c; a], recomputed [a; c]";
  check Runq.Stray_idle_child "busy children of p: cached [a; b; c], recomputed [a; c]"

(* A task's membership fields name one run queue, so a second queue
   refuses it rather than tracking it on the side, and the refusal
   leaves both queues as they were. *)
let test_runq_one_queue_per_task () =
  let _, _, leaves = setup_leaves 2 in
  let a = List.nth leaves 0 and b = List.nth leaves 1 in
  let q1 = Runq.create () and q2 = Runq.create () in
  let t = task_on a "t" and u = task_on b "u" in
  Runq.enqueue q1 t;
  Runq.enqueue q2 u;
  let state () = (Runq.count q1, Runq.validate q1, Runq.count q2, Runq.validate q2) in
  let before = state () in
  Alcotest.check_raises "enqueue into a second queue"
    (Invalid_argument
       (Printf.sprintf "Runq.enqueue: task#%d is queued in another run queue" t.Task.id))
    (fun () -> Runq.enqueue q2 t);
  let show (c1, v1, c2, v2) =
    let r = function Ok () -> "ok" | Error e -> e in
    Printf.sprintf "q1 %d %s, q2 %d %s" c1 (r v1) c2 (r v2)
  in
  Alcotest.(check string) "both queues unchanged" (show before) (show (state ()));
  Alcotest.(check bool) "still in the first" true (Runq.mem q1 t);
  Alcotest.(check bool) "not in the second" false (Runq.mem q2 t);
  (* Once the first queue lets go, the second may take it. *)
  Runq.dequeue q1 t;
  Runq.enqueue q2 t;
  Alcotest.(check int) "moved" 2 (Runq.count q2)

(* Queue ids count per run, so the first queue of every run has id 1,
   and so does [rq_owner] of every task queued in one.  A queue records
   its run, so a task of another run is never its member: enqueueing it
   raises before either queue changes, and dequeueing it does nothing. *)
let test_runq_other_run_is_not_member () =
  let _, _, la = setup_leaves 1 and _, _, lb = setup_leaves 1 in
  let qa = Runq.create () and qb = Runq.create () in
  let ta = task_on (List.hd la) "ta" and tb = task_on (List.hd lb) "tb" in
  Runq.enqueue qa ta;
  Runq.enqueue qb tb;
  Alcotest.(check bool) "same queue id in both runs" true (ta.Task.rq_owner = tb.Task.rq_owner);
  Alcotest.(check bool) "tb is not in qa" false (Runq.mem qa tb);
  Alcotest.(check bool) "ta is not in qb" false (Runq.mem qb ta);
  Alcotest.check_raises "enqueue of a task queued in another run"
    (Invalid_argument
       (Printf.sprintf "Runq.enqueue: task#%d is queued in another run queue" tb.Task.id))
    (fun () -> Runq.enqueue qa tb);
  Runq.dequeue qa tb;
  let idle = task_on (List.hd lb) "idle" in
  Alcotest.check_raises "enqueue of an unqueued task of another run"
    (Invalid_argument (Printf.sprintf "Runq.enqueue: task#%d is of another run" idle.Task.id))
    (fun () -> Runq.enqueue qa idle);
  let r = function Ok () -> "ok" | Error e -> e in
  Alcotest.(check (pair int int)) "counts" (1, 1) (Runq.count qa, Runq.count qb);
  Alcotest.(check string) "qa validates" "ok" (r (Runq.validate qa));
  Alcotest.(check string) "qb validates" "ok" (r (Runq.validate qb));
  Alcotest.(check bool) "tb still in qb" true (Runq.mem qb tb);
  Alcotest.(check bool) "ta still in qa" true (Runq.mem qa ta)

(* {1 Policy harness}

   Run a policy directly (no machine): repeatedly pick, charge a fixed
   slice to the picked task's container, and count slices per container. *)
let run_policy policy tasks ~slices =
  let counts = Hashtbl.create 8 in
  List.iter policy.Sched.Policy.enqueue tasks;
  let slice = Simtime.ms 1 in
  for i = 0 to slices - 1 do
    let now = Simtime.of_ns (i * 1_000_000) in
    match some_task (policy.Sched.Policy.pick ~now) with
    | Some task ->
        let c = Task.container task in
        let cid = Container.id c in
        Hashtbl.replace counts cid (1 + Option.value ~default:0 (Hashtbl.find_opt counts cid));
        Container.charge_cpu c ~kernel:false slice;
        policy.Sched.Policy.charge ~container:c ~now slice
    | None -> ()
  done;
  fun container -> Option.value ~default:0 (Hashtbl.find_opt counts (Container.id container))

let test_timeshare_equal_sharing () =
  let _, parent, leaves = setup_leaves 2 in
  ignore parent;
  let a = List.nth leaves 0 and b = List.nth leaves 1 in
  let policy = Sched.Timeshare.make () in
  let count = run_policy policy [ task_on a "a"; task_on b "b" ] ~slices:1000 in
  Alcotest.(check bool) "roughly equal" true (abs (count a - count b) < 50)

let test_timeshare_priority_weighting () =
  let root = Container.create_root () in
  let parent = Container.create ~parent:root ~attrs:(fixed 1.0) () in
  let hi = Container.create ~parent ~attrs:(ts 30) () in
  let lo = Container.create ~parent ~attrs:(ts 10) () in
  let policy = Sched.Timeshare.make () in
  let count = run_policy policy [ task_on hi "hi"; task_on lo "lo" ] ~slices:1000 in
  let ratio = float_of_int (count hi) /. float_of_int (max 1 (count lo)) in
  Alcotest.(check bool) "3:1 weighting" true (ratio > 2.5 && ratio < 3.5)

let test_timeshare_idle_class () =
  let root = Container.create_root () in
  let parent = Container.create ~parent:root ~attrs:(fixed 1.0) () in
  let regular = Container.create ~parent ~attrs:(ts 10) () in
  let idle = Container.create ~parent ~attrs:(ts 0) () in
  let policy = Sched.Timeshare.make () in
  let count = run_policy policy [ task_on regular "r"; task_on idle "i" ] ~slices:200 in
  Alcotest.(check int) "idle starved while regular runnable" 0 (count idle);
  Alcotest.(check int) "regular takes all" 200 (count regular)

let test_timeshare_idle_runs_alone () =
  let root = Container.create_root () in
  let parent = Container.create ~parent:root ~attrs:(fixed 1.0) () in
  let idle = Container.create ~parent ~attrs:(ts 0) () in
  let policy = Sched.Timeshare.make () in
  let count = run_policy policy [ task_on idle "i" ] ~slices:10 in
  Alcotest.(check int) "idle class runs when alone" 10 (count idle)

let test_multilevel_fixed_shares () =
  let root = Container.create_root () in
  let a = Container.create ~parent:root ~attrs:(fixed 0.7) () in
  let b = Container.create ~parent:root ~attrs:(fixed 0.3) () in
  let policy = Sched.Multilevel.make ~root () in
  let count = run_policy policy [ task_on a "a"; task_on b "b" ] ~slices:1000 in
  Alcotest.(check bool) "70/30 split" true (abs (count a - 700) < 30 && abs (count b - 300) < 30)

let test_multilevel_hierarchy () =
  let root = Container.create_root () in
  let left = Container.create ~parent:root ~attrs:(fixed 0.5) () in
  let right = Container.create ~parent:root ~attrs:(fixed 0.5) () in
  let l1 = Container.create ~parent:left ~attrs:(ts 10) () in
  let l2 = Container.create ~parent:left ~attrs:(ts 10) () in
  let r1 = Container.create ~parent:right ~attrs:(ts 10) () in
  let policy = Sched.Multilevel.make ~root () in
  let count =
    run_policy policy [ task_on l1 "l1"; task_on l2 "l2"; task_on r1 "r1" ] ~slices:1000
  in
  Alcotest.(check bool) "r1 gets its parent's whole half" true (abs (count r1 - 500) < 40);
  Alcotest.(check bool) "l1/l2 split the other half" true
    (abs (count l1 - 250) < 40 && abs (count l2 - 250) < 40)

let test_multilevel_work_conserving () =
  let root = Container.create_root () in
  let a = Container.create ~parent:root ~attrs:(fixed 0.9) () in
  let b = Container.create ~parent:root ~attrs:(fixed 0.1) () in
  ignore a;
  let policy = Sched.Multilevel.make ~root () in
  (* Only [b] has work: it gets the whole CPU despite its 10% guarantee. *)
  let count = run_policy policy [ task_on b "b" ] ~slices:100 in
  Alcotest.(check int) "work conserving" 100 (count b)

let test_multilevel_cpu_limit () =
  let root = Container.create_root () in
  let capped =
    Container.create ~parent:root ~attrs:(Attrs.fixed_share ~share:0.3 ~cpu_limit:0.3 ()) ()
  in
  let free = Container.create ~parent:root ~attrs:(ts 10) () in
  let policy = Sched.Multilevel.make ~root () in
  let count = run_policy policy [ task_on capped "c"; task_on free "f" ] ~slices:1000 in
  Alcotest.(check bool) "cap enforced" true (abs (count capped - 300) < 40)

let test_multilevel_limit_leaves_cpu_idle () =
  let root = Container.create_root () in
  let capped =
    Container.create ~parent:root ~attrs:(Attrs.fixed_share ~share:0.2 ~cpu_limit:0.2 ()) ()
  in
  let policy = Sched.Multilevel.make ~root () in
  let count = run_policy policy [ task_on capped "c" ] ~slices:1000 in
  (* Even alone, a hard limit caps consumption (20 of each 100 slices). *)
  Alcotest.(check bool) "throttled alone" true (count capped <= 220);
  (* Mid-window on a freshly throttled rig, pick yields nothing and
     next_release points at the next window boundary. *)
  let root3 = Container.create_root () in
  let capped3 =
    Container.create ~parent:root3 ~attrs:(Attrs.fixed_share ~share:0.2 ~cpu_limit:0.2 ()) ()
  in
  let policy3 = Sched.Multilevel.make ~root:root3 () in
  let count3 = run_policy policy3 [ task_on capped3 "c3" ] ~slices:50 in
  Alcotest.(check bool) "20 slices then throttled" true (count3 capped3 <= 22);
  (match some_task (policy3.Sched.Policy.pick ~now:(Simtime.of_ns 50_000_000)) with
  | Some _ -> Alcotest.fail "should be throttled mid-window"
  | None -> ());
  (match policy3.Sched.Policy.next_release ~now:(Simtime.of_ns 50_000_000) with
  | Some t -> Alcotest.(check int) "next window boundary" 100_000_000 (Simtime.to_ns t)
  | None -> Alcotest.fail "release not scheduled")

let test_multilevel_idle_class () =
  let root = Container.create_root () in
  let regular = Container.create ~parent:root ~attrs:(ts 10) () in
  let idle = Container.create ~parent:root ~attrs:(ts 0) () in
  let policy = Sched.Multilevel.make ~root () in
  let count = run_policy policy [ task_on regular "r"; task_on idle "i" ] ~slices:100 in
  Alcotest.(check int) "idle starved" 0 (count idle);
  (* A fresh rig where only the idle-class container has work. *)
  let root2 = Container.create_root () in
  let idle2 = Container.create ~parent:root2 ~attrs:(ts 0) () in
  let policy2 = Sched.Multilevel.make ~root:root2 () in
  let count2 = run_policy policy2 [ task_on idle2 "i2" ] ~slices:10 in
  Alcotest.(check int) "idle alone runs" 10 (count2 idle2)

let test_lottery_proportional () =
  let root = Container.create_root () in
  let parent = Container.create ~parent:root ~attrs:(fixed 1.0) () in
  let hi = Container.create ~parent ~attrs:(ts 30) () in
  let lo = Container.create ~parent ~attrs:(ts 10) () in
  let policy = Sched.Lottery.make ~rng:(Engine.Rng.create ~seed:99) () in
  let count = run_policy policy [ task_on hi "hi"; task_on lo "lo" ] ~slices:4000 in
  let ratio = float_of_int (count hi) /. float_of_int (max 1 (count lo)) in
  Alcotest.(check bool) "about 3:1" true (ratio > 2.4 && ratio < 3.8)

let test_stride_proportional () =
  let root = Container.create_root () in
  let parent = Container.create ~parent:root ~attrs:(fixed 1.0) () in
  let hi = Container.create ~parent ~attrs:(ts 30) () in
  let lo = Container.create ~parent ~attrs:(ts 10) () in
  let policy = Sched.Stride.make () in
  let count = run_policy policy [ task_on hi "hi"; task_on lo "lo" ] ~slices:1000 in
  Alcotest.(check bool) "exactly 3:1 (deterministic)" true
    (abs (count hi - 750) <= 10 && abs (count lo - 250) <= 10)

let test_timeshare_combined_scheduler_binding () =
  (* A thread multiplexed over a heavy and a light container is scheduled
     by the combined usage of its scheduler-binding set (§4.3): even when
     currently bound to a fresh container, its history counts against it. *)
  let root = Container.create_root () in
  let parent = Container.create ~parent:root ~attrs:(fixed 1.0) () in
  let heavy = Container.create ~parent ~name:"heavy" ~attrs:(ts 10) () in
  let fresh_a = Container.create ~parent ~name:"fresh-a" ~attrs:(ts 10) () in
  let fresh_b = Container.create ~parent ~name:"fresh-b" ~attrs:(ts 10) () in
  let policy = Sched.Timeshare.make () in
  (* The multiplexed task historically served [heavy]... *)
  let mux_binding = Rescont.Binding.create ~now:Simtime.zero heavy in
  let now = Simtime.of_ns 1_000 in
  policy.Sched.Policy.charge ~container:heavy ~now (Simtime.ms 50);
  (* ...then rebinds to a fresh container, keeping heavy in its set. *)
  Rescont.Binding.set_resource_binding mux_binding ~now fresh_a;
  let mux = Task.create ~name:"mux" mux_binding in
  let clean = task_on fresh_b "clean" in
  policy.Sched.Policy.enqueue mux;
  policy.Sched.Policy.enqueue clean;
  (match some_task (policy.Sched.Policy.pick ~now) with
  | Some picked ->
      Alcotest.(check string) "clean task wins over multiplexed history" "clean"
        picked.Task.name
  | None -> Alcotest.fail "nothing picked");
  (* After an explicit scheduler-binding reset, history is forgiven. *)
  Rescont.Binding.reset_scheduler_binding mux_binding ~now;
  (match some_task (policy.Sched.Policy.pick ~now) with
  | Some picked ->
      (* Both are now clean; the winner is simply deterministic. *)
      Alcotest.(check bool) "pick still works" true
        (picked.Task.name = "clean" || picked.Task.name = "mux")
  | None -> Alcotest.fail "nothing picked after reset")

let test_policies_empty_pick () =
  let root = Container.create_root () in
  List.iter
    (fun policy ->
      Alcotest.(check bool)
        (policy.Sched.Policy.name ^ " empty pick")
        true
        (Task.is_none (policy.Sched.Policy.pick ~now:Simtime.zero)))
    [
      Sched.Timeshare.make ();
      Sched.Multilevel.make ~root ();
      Sched.Lottery.make ~rng:(Engine.Rng.create ~seed:1) ();
      Sched.Stride.make ();
    ]

let test_round_robin_within_container () =
  let _, _, leaves = setup_leaves 1 in
  let a = List.hd leaves in
  let t1 = task_on a "t1" and t2 = task_on a "t2" in
  let policy = Sched.Timeshare.make () in
  policy.Sched.Policy.enqueue t1;
  policy.Sched.Policy.enqueue t2;
  let first = some_task (policy.Sched.Policy.pick ~now:Simtime.zero) in
  policy.Sched.Policy.charge ~container:a ~now:Simtime.zero (Simtime.ms 1);
  let second = some_task (policy.Sched.Policy.pick ~now:(Simtime.of_ns 1)) in
  Alcotest.(check bool) "alternation" true
    (match (first, second) with
    | Some x, Some y -> not (Task.equal x y)
    | _ -> false)

(* Property: for any valid fixed-share split over busy containers, the
   multilevel scheduler delivers shares proportional to the split. *)
let prop_multilevel_proportional =
  QCheck2.Test.make ~name:"multilevel respects random fixed shares" ~count:30
    QCheck2.Gen.(list_size (int_range 2 5) (int_range 1 10))
    (fun weights ->
      let total = float_of_int (List.fold_left ( + ) 0 weights) in
      let shares = List.map (fun w -> float_of_int w /. total) weights in
      let root = Container.create_root () in
      let containers =
        List.map (fun share -> Container.create ~parent:root ~attrs:(fixed share) ()) shares
      in
      let policy = Sched.Multilevel.make ~root () in
      let slices = 2000 in
      let count = run_policy policy (List.map (fun c -> task_on c "t") containers) ~slices in
      List.for_all2
        (fun c share ->
          let got = float_of_int (count c) /. float_of_int slices in
          Float.abs (got -. share) < 0.05)
        containers shares)

(* Property: the stride scheduler's allocation error never exceeds one
   slice per container (the classic stride bound, loosely checked). *)
let prop_stride_accuracy =
  QCheck2.Test.make ~name:"stride allocation accuracy" ~count:30
    QCheck2.Gen.(pair (int_range 1 20) (int_range 1 20))
    (fun (wa, wb) ->
      let root = Container.create_root () in
      let parent = Container.create ~parent:root ~attrs:(fixed 1.0) () in
      let a = Container.create ~parent ~attrs:(ts wa) () in
      let b = Container.create ~parent ~attrs:(ts wb) () in
      let policy = Sched.Stride.make () in
      let slices = 500 in
      let count = run_policy policy [ task_on a "a"; task_on b "b" ] ~slices in
      let expect_a = float_of_int (slices * wa) /. float_of_int (wa + wb) in
      Float.abs (float_of_int (count a) -. expect_a) <= 3.)

(* Property: in a random two-level fixed-share hierarchy with every leaf
   busy, each leaf's share is the product of shares on its path. *)
let prop_multilevel_hierarchy_product =
  QCheck2.Test.make ~name:"nested shares multiply" ~count:20
    QCheck2.Gen.(pair (int_range 1 5) (int_range 1 5))
    (fun (wa, wb) ->
      let total = float_of_int (wa + wb) in
      let sa = float_of_int wa /. total and sb = float_of_int wb /. total in
      let root = Container.create_root () in
      let a = Container.create ~parent:root ~attrs:(fixed sa) () in
      let b = Container.create ~parent:root ~attrs:(fixed sb) () in
      let a1 = Container.create ~parent:a ~attrs:(fixed 0.5) () in
      let a2 = Container.create ~parent:a ~attrs:(fixed 0.5) () in
      let b1 = Container.create ~parent:b ~attrs:(fixed 1.0) () in
      let policy = Sched.Multilevel.make ~root () in
      let slices = 2000 in
      let count =
        run_policy policy
          [ task_on a1 "a1"; task_on a2 "a2"; task_on b1 "b1" ]
          ~slices
      in
      let close c expected =
        Float.abs ((float_of_int (count c) /. float_of_int slices) -. expected) < 0.06
      in
      close a1 (sa /. 2.) && close a2 (sa /. 2.) && close b1 sb
      && Float.abs (Container.guaranteed_fraction a1 -. (sa /. 2.)) < 1e-9)

let test_runq_lazy_reenqueue () =
  (* Dequeue-then-re-enqueue must not put the task back where it was:
     the re-enqueued task goes to the back, and front order stays FIFO. *)
  let _, _, leaves = setup_leaves 1 in
  let a = List.hd leaves in
  let q = Runq.create () in
  let t1 = task_on a "t1" and t2 = task_on a "t2" in
  Runq.enqueue q t1;
  Runq.enqueue q t2;
  Runq.dequeue q t1;
  Runq.enqueue q t1;
  let front () = match some_task (Runq.front q a) with Some t -> t.Task.name | None -> "-" in
  Alcotest.(check string) "t2 now first" "t2" (front ());
  Runq.rotate q a;
  Alcotest.(check string) "t1 behind it" "t1" (front ());
  Runq.rotate q a;
  Alcotest.(check string) "back to t2" "t2" (front ());
  Alcotest.(check int) "count" 2 (Runq.count q);
  (* Heavy churn at the back leaves the front where it was. *)
  for _ = 1 to 100 do
    Runq.dequeue q t2;
    Runq.enqueue q t2
  done;
  Alcotest.(check string) "t1 survived churn in front" "t1" (front ());
  Alcotest.(check int) "count stable" 2 (Runq.count q)

(* The queue links through the tasks, so a task behind the front leaves
   and rejoins its queue without allocating.  Three tasks share one
   container; each cycle dequeues and re-enqueues the middle one (t2,
   then t3, which the first cycle left in the middle), so t1 stays in
   front throughout. *)
let test_runq_middle_dequeue_allocates_nothing () =
  let _, _, leaves = setup_leaves 1 in
  let a = List.hd leaves in
  let q = Runq.create () in
  let t1 = task_on a "t1" and t2 = task_on a "t2" and t3 = task_on a "t3" in
  List.iter (Runq.enqueue q) [ t1; t2; t3 ];
  let cycles n =
    for _ = 1 to n / 2 do
      Runq.dequeue q t2;
      Runq.enqueue q t2;
      Runq.dequeue q t3;
      Runq.enqueue q t3
    done
  in
  cycles 100;
  ignore (Gc.minor_words ());
  let w0 = Gc.minor_words () in
  cycles 1_000;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "minor words over 1000 cycles" 0. words;
  Alcotest.(check string) "t1 still in front" "t1" (Runq.front q a).Task.name;
  Alcotest.(check int) "count" 3 (Runq.count q);
  Alcotest.(check (result unit string)) "validate" (Ok ()) (Runq.validate q)

(* [Runq] against the plainest model of it: one list of tasks per
   container, head first.  Random enqueues, dequeues, rotates and
   rebind-plus-requeues of 8 tasks over three leaves of a two-level
   tree (b under the root, c and d under a); after every step each
   container's front, own work and subtree work, and the queue's count,
   must match the model, and [validate] must hold. *)
let prop_runq_matches_list_model =
  QCheck2.Test.make ~name:"runq matches a per-container list model" ~count:100
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Engine.Rng.create ~seed in
      let root = Container.create_root () in
      let a = Container.create ~parent:root ~name:"a" ~attrs:(fixed 0.5) () in
      let b = Container.create ~parent:root ~name:"b" () in
      let c = Container.create ~parent:a ~name:"c" () in
      let d = Container.create ~parent:a ~name:"d" () in
      let cs = [| root; a; b; c; d |] in
      let subtree = [| [ 0; 1; 2; 3; 4 ]; [ 1; 3; 4 ]; [ 2 ]; [ 3 ]; [ 4 ] |] in
      let leaf () = 2 + Engine.Rng.int rng 3 in
      let ntasks = 8 in
      let bound = Array.init ntasks (fun _ -> leaf ()) in
      let tasks = Array.init ntasks (fun i -> task_on cs.(bound.(i)) (Printf.sprintf "t%d" i)) in
      let model = Array.make (Array.length cs) [] in
      let queued i = Array.exists (List.mem i) model in
      let remove i = Array.iteri (fun k l -> model.(k) <- List.filter (( <> ) i) l) model in
      let append i = model.(bound.(i)) <- model.(bound.(i)) @ [ i ] in
      let q = Runq.create () in
      for step = 1 to 200 do
        let i = Engine.Rng.int rng ntasks in
        let k = leaf () in
        (match Engine.Rng.int rng 4 with
        | 0 ->
            Runq.enqueue q tasks.(i);
            if not (queued i) then append i
        | 1 ->
            Runq.dequeue q tasks.(i);
            remove i
        | 2 -> (
            Runq.rotate q cs.(k);
            match model.(k) with h :: (_ :: _ as rest) -> model.(k) <- rest @ [ h ] | _ -> ())
        | _ ->
            Binding.set_resource_binding tasks.(i).Task.binding ~now:Simtime.zero cs.(k);
            bound.(i) <- k;
            Runq.requeue q tasks.(i);
            remove i;
            append i);
        let fail what = Alcotest.failf "seed %d step %d: %s" seed step what in
        let total = Array.fold_left (fun n l -> n + List.length l) 0 model in
        if Runq.count q <> total then
          fail (Printf.sprintf "count %d, model %d" (Runq.count q) total);
        (match Runq.validate q with Ok () -> () | Error msg -> fail msg);
        Array.iteri
          (fun k container ->
            let name = Container.name container in
            let expected = match model.(k) with [] -> Task.none | h :: _ -> tasks.(h) in
            if not (Runq.front q container == expected) then fail ("front of " ^ name);
            if Runq.container_has_work q container <> (model.(k) <> []) then
              fail ("container_has_work of " ^ name);
            let busy = List.exists (fun j -> model.(j) <> []) subtree.(k) in
            if Runq.subtree_has_work q container <> busy then fail ("subtree_has_work of " ^ name))
          cs
      done;
      true)

(* The eligibility pass sums fixed shares as floats in child order, and
   0.3 +. 0.2 +. 0.1 = 0.6 while 0.1 +. 0.2 +. 0.3 = 0.6000000000000001.
   Here the children order is [0.3; 0.2; 0.1] (adopted so), unlike both
   their creation order and the order their tasks arrive in, and the
   residual 0.4 gives each of two equal timeshare siblings a weight of
   exactly 0.2, tying with the 0.2 share; the off-by-an-ulp residual of
   any other order breaks those ties differently from the reference.  A
   task sits in one run queue, so each policy queues its own twin: same
   name, same container. *)
let test_multilevel_share_sum_order () =
  let root = Container.create_root () in
  let p = Container.create ~parent:root ~name:"p" ~attrs:(fixed 0.5) () in
  let q = Container.create ~parent:root ~name:"q" ~attrs:(fixed 0.5) () in
  let shares =
    List.map (fun s -> Container.create ~parent:q ~attrs:(fixed s) ()) [ 0.1; 0.2; 0.3 ]
  in
  List.iter (fun c -> Container.set_parent c (Some p)) (List.rev shares);
  let timeshare = List.init 2 (fun _ -> Container.create ~parent:p ~attrs:(ts 10) ()) in
  let opt = Sched.Multilevel.make ~root () and refp = Spec.Multilevel_ref.make ~root () in
  List.iteri
    (fun i c ->
      let name = Printf.sprintf "t%d" i in
      opt.Sched.Policy.enqueue (task_on c name);
      refp.Sched.Policy.enqueue (task_on c name))
    (shares @ timeshare);
  for i = 1 to 300 do
    let now = Simtime.of_ns (i * 1_000_000) in
    let name = function Some t -> t.Task.name | None -> "<none>" in
    let po = some_task (opt.Sched.Policy.pick ~now) and pr = some_task (refp.Sched.Policy.pick ~now) in
    Alcotest.(check string) (Printf.sprintf "pick %d" i) (name pr) (name po);
    match po with
    | Some t ->
        let c = Task.container t in
        opt.Sched.Policy.charge ~container:c ~now (Simtime.us 100);
        refp.Sched.Policy.charge ~container:c ~now (Simtime.us 100)
    | None -> ()
  done

(* {1 Multilevel vs. its executable specification}

   [Sched.Multilevel] is an incremental rewrite of [Spec.Multilevel_ref];
   this property drives both instances over the same randomized workload —
   enqueues, dequeues, re-parenting, leaves destroyed (queued tasks and
   all) and created mid-run, picks and charges — and demands that every
   pick returns the same task.  The steps that stress the run queue's
   busy-children sets: idle siblings created and destroyed beside queued
   ones; a container the last pick just marked as tried (the picked leaf
   or one of its groups) re-parented at once; and fixed-share leaves of
   0.1, 0.2 and 0.3, adopted in random order, whose float sum depends on
   the order the eligibility pass adds them.  After every step the
   optimised policy's [sched.runq-counts] law must hold: its incrementally
   re-synced subtree counts and busy sets equal a from-scratch rebuild.
   A task sits in one run queue, so the reference queues a twin of every
   task (same name, same container) and picks are compared through it. *)
let prop_multilevel_matches_reference =
  QCheck2.Test.make ~name:"multilevel matches reference pick-for-pick" ~count:25
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Engine.Rng.create ~seed in
      let root = Container.create_root () in
      let ngroups = 2 + Engine.Rng.int rng 3 in
      let groups =
        List.init ngroups (fun i ->
            let cpu_limit = if Engine.Rng.int rng 4 = 0 then Some 0.4 else None in
            Container.create ~parent:root
              ~name:(Printf.sprintf "g%d" i)
              ~attrs:(Attrs.fixed_share ~share:(1. /. float_of_int (ngroups + 1)) ?cpu_limit ())
              ())
      in
      let prio () = List.nth [ 0; 1; 5; 10; 30 ] (Engine.Rng.int rng 5) in
      let leaves =
        List.concat_map
          (fun g ->
            List.init
              (1 + Engine.Rng.int rng 3)
              (fun i ->
                Container.create ~parent:g ~name:(Printf.sprintf "l%d" i)
                  ~attrs:(ts (prio ())) ()))
          groups
        @ List.init
            (1 + Engine.Rng.int rng 2)
            (fun i ->
              Container.create ~parent:root ~name:(Printf.sprintf "r%d" i)
                ~attrs:(ts (prio ())) ())
      in
      (* Fixed shares whose float sum depends on the order of addition
         (0.1 +. 0.2 +. 0.3 <> 0.3 +. 0.2 +. 0.1), adopted in random order
         under the first group. *)
      let shares = [| 0.1; 0.2; 0.3 |] in
      for i = 2 downto 1 do
        let j = Engine.Rng.int rng (i + 1) in
        let x = shares.(i) in
        shares.(i) <- shares.(j);
        shares.(j) <- x
      done;
      let fixed_leaves =
        Array.to_list
          (Array.mapi
             (fun i share ->
               Container.create ~parent:(List.hd groups) ~name:(Printf.sprintf "f%d" i)
                 ~attrs:(fixed share) ())
             shares)
      in
      let leaves = leaves @ fixed_leaves in
      let tasks =
        List.concat_map
          (fun leaf ->
            List.init (1 + Engine.Rng.int rng 2) (fun i ->
                task_on leaf (Printf.sprintf "%s.t%d" (Container.name leaf) i)))
          leaves
      in
      let twins = Hashtbl.create 64 in
      let add_twin t =
        Hashtbl.replace twins t.Task.id (task_on (Task.container t) t.Task.name)
      in
      let twin t = Hashtbl.find twins t.Task.id in
      List.iter add_twin tasks;
      let invariants = Engine.Invariant.create () in
      let opt = Sched.Multilevel.make ~invariants ~root () in
      let refp = Spec.Multilevel_ref.make ~root () in
      let leaves_arr = Array.of_list leaves in
      let groups_arr = Array.of_list groups in
      let tasks_arr = ref (Array.of_list tasks) in
      let idle = ref [||] in
      let marked = ref [||] in
      let enqueue_both t =
        opt.Sched.Policy.enqueue t;
        refp.Sched.Policy.enqueue (twin t)
      in
      List.iter enqueue_both tasks;
      let random_task () = !tasks_arr.(Engine.Rng.int rng (Array.length !tasks_arr)) in
      let random_parent () =
        let k = Engine.Rng.int rng (Array.length groups_arr + 1) in
        if k = 0 then root else groups_arr.(k - 1)
      in
      let now = ref Simtime.zero in
      let ok = ref true in
      for step = 1 to 400 do
        now := Simtime.add !now (Simtime.ns (100_000 + Engine.Rng.int rng 2_000_000));
        (match Engine.Rng.int rng 16 with
        | 0 ->
            let t = random_task () in
            opt.Sched.Policy.dequeue t;
            refp.Sched.Policy.dequeue (twin t)
        | 1 -> enqueue_both (random_task ())
        | 2 -> (
            (* Re-shape the tree under both schedulers' feet. *)
            let leaf = leaves_arr.(Engine.Rng.int rng (Array.length leaves_arr)) in
            let g = groups_arr.(Engine.Rng.int rng (Array.length groups_arr)) in
            try Container.set_parent leaf (Some g) with Container.Error _ -> ())
        | 3 ->
            (* Destroy a task's leaf — usually one with queued tasks, which
               stay queued under a parentless container no pick reaches. *)
            Container.destroy (Task.container (random_task ()))
        | 4 ->
            (* A fresh leaf joins mid-run with a task queued on it. *)
            let g = groups_arr.(Engine.Rng.int rng (Array.length groups_arr)) in
            let leaf =
              Container.create ~parent:g ~name:(Printf.sprintf "n%d" step) ~attrs:(ts (prio ())) ()
            in
            let t = task_on leaf (Printf.sprintf "n%d.t" step) in
            add_twin t;
            tasks_arr := Array.append !tasks_arr [| t |];
            enqueue_both t
        | 5 | 6 ->
            (* An idle sibling joins beside queued ones. *)
            let c =
              Container.create ~parent:(random_parent ()) ~name:(Printf.sprintf "i%d" step)
                ~attrs:(ts (prio ())) ()
            in
            idle := Array.append !idle [| c |]
        | 7 ->
            (* An idle sibling goes away. *)
            if Array.length !idle > 0 then
              Container.destroy !idle.(Engine.Rng.int rng (Array.length !idle))
        | 8 | 9 -> (
            (* Re-parent a container the last pick marked as tried: the
               picked leaf or a group on its path. *)
            if Array.length !marked > 0 then
              let c = !marked.(Engine.Rng.int rng (Array.length !marked)) in
              try Container.set_parent c (Some (random_parent ())) with Container.Error _ -> ())
        | _ ->
            let po = some_task (opt.Sched.Policy.pick ~now:!now) in
            let pr = some_task (refp.Sched.Policy.pick ~now:!now) in
            (match (po, pr) with
            | None, None -> ()
            | Some a, Some b when Task.equal (twin a) b -> ()
            | _ ->
                let name = function Some t -> t.Task.name | None -> "<none>" in
                ok := false;
                Alcotest.failf "step %d: optimized picked %s, reference picked %s" step
                  (name po) (name pr));
            match po with
            | Some task ->
                let c = Task.container task in
                let span = Simtime.ns (10_000 + Engine.Rng.int rng 500_000) in
                opt.Sched.Policy.charge ~container:c ~now:!now span;
                refp.Sched.Policy.charge ~container:c ~now:!now span;
                let path = Container.ancestry c in
                marked := Array.sub path 0 (Array.length path - 1)
            | None -> marked := [||]);
        match Engine.Invariant.check invariants with
        | [] -> ()
        | v :: _ ->
            ok := false;
            Alcotest.failf "step %d: %a" step Engine.Invariant.pp_violation v
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "decay accumulates" `Quick test_decay_accumulates;
    Alcotest.test_case "decay halves at tau" `Quick test_decay_halves;
    Alcotest.test_case "decay monotone" `Quick test_decay_monotone_without_charges;
    Alcotest.test_case "runq basics" `Quick test_runq_basic;
    Alcotest.test_case "runq requeue" `Quick test_runq_requeue_moves;
    Alcotest.test_case "runq busy order is creation order" `Quick
      test_runq_busy_order_is_creation_order;
    Alcotest.test_case "runq subtree" `Quick test_runq_subtree;
    Alcotest.test_case "runq lazy re-enqueue" `Quick test_runq_lazy_reenqueue;
    Alcotest.test_case "runq middle dequeue allocates nothing" `Quick
      test_runq_middle_dequeue_allocates_nothing;
    QCheck_alcotest.to_alcotest prop_runq_matches_list_model;
    Alcotest.test_case "runq busy-set law" `Quick test_runq_busy_set_law;
    Alcotest.test_case "timeshare equal sharing" `Quick test_timeshare_equal_sharing;
    Alcotest.test_case "timeshare priority weights" `Quick test_timeshare_priority_weighting;
    Alcotest.test_case "timeshare idle class" `Quick test_timeshare_idle_class;
    Alcotest.test_case "timeshare idle alone" `Quick test_timeshare_idle_runs_alone;
    Alcotest.test_case "multilevel fixed shares" `Quick test_multilevel_fixed_shares;
    Alcotest.test_case "multilevel hierarchy" `Quick test_multilevel_hierarchy;
    Alcotest.test_case "multilevel work conserving" `Quick test_multilevel_work_conserving;
    Alcotest.test_case "multilevel cpu limit" `Quick test_multilevel_cpu_limit;
    Alcotest.test_case "multilevel limit idles cpu" `Quick test_multilevel_limit_leaves_cpu_idle;
    Alcotest.test_case "multilevel idle class" `Quick test_multilevel_idle_class;
    Alcotest.test_case "lottery proportional" `Quick test_lottery_proportional;
    Alcotest.test_case "stride proportional" `Quick test_stride_proportional;
    Alcotest.test_case "combined scheduler binding" `Quick
      test_timeshare_combined_scheduler_binding;
    Alcotest.test_case "empty pick" `Quick test_policies_empty_pick;
    Alcotest.test_case "round robin within container" `Quick test_round_robin_within_container;
    QCheck_alcotest.to_alcotest prop_multilevel_proportional;
    QCheck_alcotest.to_alcotest prop_multilevel_hierarchy_product;
    QCheck_alcotest.to_alcotest prop_stride_accuracy;
    Alcotest.test_case "multilevel share sum order" `Quick test_multilevel_share_sum_order;
    QCheck_alcotest.to_alcotest prop_multilevel_matches_reference;
    Alcotest.test_case "runq one queue per task" `Quick test_runq_one_queue_per_task;
    Alcotest.test_case "runq other run's task is not a member" `Quick
      test_runq_other_run_is_not_member;
  ]
