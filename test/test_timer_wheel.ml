(* Unit and property tests for Engine.Timer_wheel and Engine.Sim, centred
   on their equivalence with independent oracles built on Heapq (a binary
   heap keyed by priority and insertion sequence): under the event-queue
   discipline (priorities never below the last extraction) the wheel must
   produce the heap's extraction sequence — same priorities, same
   insertion-order FIFO among ties, same response to cancellation — and
   Sim must fire what Sim_ref fires. *)

module Wheel = Engine.Timer_wheel
module Sim = Engine.Sim
module Simtime = Engine.Simtime

let test_empty () =
  let w = Wheel.create () in
  Alcotest.(check bool) "empty" true (Wheel.is_empty w);
  Alcotest.(check int) "length" 0 (Wheel.length w);
  Alcotest.(check bool) "pop empty" true (Wheel.pop_min w = None);
  Alcotest.(check int) "lower bound starts at 0" 0 (Wheel.lower_bound w)

let drain_wheel w =
  let rec go acc = match Wheel.pop_min w with Some (_, v) -> go (v :: acc) | None -> List.rev acc in
  go []

let test_ordering () =
  let w = Wheel.create () in
  List.iter (fun p -> ignore (Wheel.insert w ~prio:p p)) [ 5; 1; 4; 1; 3; 2 ];
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5 ] (drain_wheel w)

let test_fifo_ties () =
  let w = Wheel.create () in
  ignore (Wheel.insert w ~prio:7 "first");
  ignore (Wheel.insert w ~prio:7 "second");
  ignore (Wheel.insert w ~prio:7 "third");
  Alcotest.(check (list string))
    "insertion order at equal priority" [ "first"; "second"; "third" ] (drain_wheel w)

let test_cancel () =
  let w = Wheel.create () in
  let _a = Wheel.insert w ~prio:1 "a" in
  let b = Wheel.insert w ~prio:2 "b" in
  let _c = Wheel.insert w ~prio:3 "c" in
  Alcotest.(check bool) "cancel live" true (Wheel.cancel w b);
  Alcotest.(check bool) "cancel twice" false (Wheel.cancel w b);
  Alcotest.(check int) "length after cancel" 2 (Wheel.length w);
  Alcotest.(check bool) "a first" true (Wheel.pop_min w = Some (1, "a"));
  Alcotest.(check bool) "b skipped" true (Wheel.pop_min w = Some (3, "c"));
  Alcotest.(check bool) "drained" true (Wheel.pop_min w = None)

let test_far_priorities () =
  (* Spread across many wheel levels, including the top ones. *)
  let w = Wheel.create () in
  let prios = [ 0; 1; 63; 64; 4095; 4096; 1_000_000; 1_000_000_000; max_int / 2; max_int ] in
  List.iter (fun p -> ignore (Wheel.insert w ~prio:p p)) (List.rev prios);
  Alcotest.(check (list int)) "cascades through all levels" prios (drain_wheel w)

let test_insert_below_lower_bound_rejected () =
  let w = Wheel.create () in
  ignore (Wheel.insert w ~prio:100 "x");
  Alcotest.(check bool) "pop" true (Wheel.pop_min w = Some (100, "x"));
  Alcotest.check_raises "past insert rejected"
    (Invalid_argument "Timer_wheel.insert: priority 99 below lower bound 100") (fun () ->
      ignore (Wheel.insert w ~prio:99 "y"))

let test_insert_at_lower_bound_ok () =
  let w = Wheel.create () in
  ignore (Wheel.insert w ~prio:50 "a");
  Alcotest.(check bool) "a" true (Wheel.pop_min w = Some (50, "a"));
  ignore (Wheel.insert w ~prio:50 "b");
  (* scheduling "now" keeps working, and fires after what was queued *)
  ignore (Wheel.insert w ~prio:50 "c");
  Alcotest.(check bool) "b" true (Wheel.pop_min w = Some (50, "b"));
  Alcotest.(check bool) "c" true (Wheel.pop_min w = Some (50, "c"));
  (* Ties that cascaded down from level 2, then inserts of every kind at
     the bound: those queue behind the ties and cancel like any other. *)
  ignore (Wheel.insert w ~prio:5_000 "queued-1");
  ignore (Wheel.insert w ~prio:5_000 "queued-2");
  ignore (Wheel.insert w ~prio:9_000 "later");
  Alcotest.(check (option (pair int string)))
    "queued-1" (Some (5_000, "queued-1")) (Wheel.pop_min w);
  ignore (Wheel.insert_oneshot w ~prio:5_000 "now-1");
  let doomed = Wheel.insert_oneshot w ~prio:5_000 "doomed" in
  ignore (Wheel.insert w ~prio:5_000 "now-2");
  Alcotest.(check bool) "cancel at the bound" true (Wheel.cancel w doomed);
  Alcotest.(check int) "length" 4 (Wheel.length w);
  Alcotest.(check (list string))
    "queued ties, then the new ones, then later"
    [ "queued-2"; "now-1"; "now-2"; "later" ]
    (drain_wheel w)

(* [extract] hands back the node, [take] its value; [cancel] ends a
   pinned node for good, also after it popped, when there is nothing
   to unlink. *)
let test_extract_take_cancel () =
  let w = Wheel.create () in
  let h = Wheel.insert w ~prio:10 "tick" in
  Alcotest.(check int) "nothing under 5" (-1) (Wheel.extract w ~horizon:5);
  Alcotest.(check int) "commits the horizon" 5 (Wheel.lower_bound w);
  let i = Wheel.extract w ~horizon:10 in
  Alcotest.(check bool) "extracted" true (i >= 0);
  Alcotest.(check int) "bound at its priority" 10 (Wheel.lower_bound w);
  Alcotest.(check string) "take" "tick" (Wheel.take w i);
  Alcotest.(check bool) "pinned handle still valid" true (Wheel.valid w h);
  Alcotest.(check bool) "cancel a popped node" false (Wheel.cancel w h);
  Alcotest.(check bool) "handle stale" false (Wheel.valid w h);
  Alcotest.(check bool) "cancel twice" false (Wheel.cancel w h);
  (try
     Wheel.rearm w h ~prio:20;
     Alcotest.fail "rearm of a cancelled node must raise"
   with Invalid_argument _ -> ());
  let q = Wheel.insert w ~prio:30 "queued" in
  Alcotest.(check bool) "cancel a queued node" true (Wheel.cancel w q);
  Alcotest.(check bool) "empty" true (Wheel.is_empty w);
  let o = Wheel.insert_oneshot w ~prio:40 "oneshot" in
  Alcotest.(check (option (pair int string))) "oneshot pops" (Some (40, "oneshot")) (Wheel.pop_min w);
  Alcotest.(check bool) "popped oneshot handle stale" false (Wheel.valid w o)

let test_pop_min_until_commits_horizon () =
  let w = Wheel.create () in
  ignore (Wheel.insert w ~prio:10_000 "later");
  Alcotest.(check bool) "nothing before 5000" true (Wheel.pop_min_until w ~horizon:5_000 = None);
  Alcotest.(check int) "lower bound committed" 5_000 (Wheel.lower_bound w);
  Alcotest.(check bool) "event still queued" true (Wheel.length w = 1);
  Alcotest.(check bool) "fires within horizon" true
    (Wheel.pop_min_until w ~horizon:20_000 = Some (10_000, "later"))

let test_clear () =
  let w = Wheel.create () in
  for i = 0 to 99 do
    ignore (Wheel.insert w ~prio:(i * 37) i)
  done;
  Wheel.clear w;
  Alcotest.(check bool) "cleared" true (Wheel.is_empty w);
  ignore (Wheel.insert w ~prio:1 1);
  Alcotest.(check int) "usable after clear" 1 (Wheel.length w)

(* {1 The equivalence property}

   Random schedules of interleaved inserts, cancellations and pops are
   applied to the wheel and the heap; extraction sequences (priority AND
   identity, so same-priority FIFO ties are compared too) must match
   exactly.  Inserted priorities respect the event-queue discipline: each
   is the current lower bound plus a random non-negative delta, with
   deltas drawn across several orders of magnitude to exercise every
   wheel level, and often zero, inserting at the lower bound itself. *)

type op =
  | Insert of int (* delta; 0 inserts at the lower bound *)
  | Insert_pooled of int (* delta; wheel-side uses the free-list path *)
  | Cancel of int (* index hint *)
  | Pop

let gen_ops =
  QCheck2.Gen.(
    list_size (int_range 1 400)
      (frequency
         [
           ( 4,
             map
               (fun (mag, d) -> Insert (d mod (1 lsl mag)))
               (pair (int_range 0 40) (int_range 0 max_int)) );
           ( 3,
             map
               (fun (mag, d) -> Insert_pooled (d mod (1 lsl mag)))
               (pair (int_range 0 40) (int_range 0 max_int)) );
           (2, return (Insert 0));
           (1, return (Insert_pooled 0));
           (2, map (fun i -> Cancel i) (int_range 0 1000));
           (3, return Pop);
         ]))

let prop_wheel_matches_heap =
  QCheck2.Test.make ~name:"wheel and heap extract identical sequences" ~count:300 gen_ops
    (fun ops ->
      let h = Heapq.create () in
      let w = Wheel.create () in
      let bound = ref 0 in
      let seq = ref 0 in
      let handles = ref [] in
      List.for_all
        (fun op ->
          match op with
          | Insert delta ->
              let prio = if !bound > max_int - delta then max_int else !bound + delta in
              let id = !seq in
              incr seq;
              let hh = Heapq.insert h ~prio id in
              let wh = Wheel.insert w ~prio id in
              handles := (hh, wh) :: !handles;
              Heapq.length h = Wheel.length w
          | Insert_pooled delta ->
              (* Fire-and-forget nodes (a fire-once insert whose handle
                 is dropped, as [Sim.post] makes) recycle through the
                 free list on pop; interleaved with handled inserts,
                 cancels and pops they must still extract in exactly the
                 heap's order, across solo-lane transitions and node
                 reuse. *)
              let prio = if !bound > max_int - delta then max_int else !bound + delta in
              let id = !seq in
              incr seq;
              ignore (Heapq.insert h ~prio id);
              ignore (Wheel.insert_oneshot w ~prio id);
              Heapq.length h = Wheel.length w
          | Cancel i -> (
              match !handles with
              | [] -> true
              | hs ->
                  let hh, wh = List.nth hs (i mod List.length hs) in
                  let a = Heapq.cancel h hh in
                  let b = Wheel.cancel w wh in
                  a = b && Heapq.length h = Wheel.length w)
          | Pop -> (
              match (Heapq.pop_min h, Wheel.pop_min w) with
              | None, None -> true
              | Some (hp, hv), Some (wp, wv) ->
                  bound := hp;
                  hp = wp && hv = wv && Heapq.length h = Wheel.length w
              | _ -> false))
        ops)

let prop_pop_until_equals_peek_and_pop =
  (* pop_min_until must agree with the heap's peek-then-pop under
     monotonically growing horizons. *)
  QCheck2.Test.make ~name:"wheel pop_min_until matches heap peek+pop" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 100) (int_range 0 100_000))
        (list_size (int_range 1 40) (int_range 0 20_000)))
    (fun (prios, steps) ->
      let h = Heapq.create () in
      let w = Wheel.create () in
      List.iteri
        (fun i p ->
          ignore (Heapq.insert h ~prio:p i);
          ignore (Wheel.insert w ~prio:p i))
        prios;
      let horizon = ref 0 in
      List.for_all
        (fun step ->
          horizon := !horizon + step;
          let rec drain_until () =
            let from_heap =
              match Heapq.peek_min_prio h with
              | Some p when p <= !horizon -> Heapq.pop_min h
              | _ -> None
            in
            let from_wheel = Wheel.pop_min_until w ~horizon:!horizon in
            if from_heap <> from_wheel then false
            else match from_heap with Some _ -> drain_until () | None -> true
          in
          drain_until ())
        steps)

(* {1 Sim against the reference simulator}

   Sim_ref states Sim's contract on a binary heap.  The same scenario —
   one-shot timers, nested scheduling, zero-delay events, cancellations
   and periodic series — run on both must fire the same events at the
   same instants, return the same cancel results and leave the same
   clock. *)

module type SIM = sig
  type t
  type event

  val create : unit -> t
  val now : t -> Simtime.t
  val at : t -> Simtime.t -> (unit -> unit) -> event
  val after : t -> Simtime.span -> (unit -> unit) -> event
  val post_at : t -> Simtime.t -> (unit -> unit) -> unit
  val post : t -> Simtime.span -> (unit -> unit) -> unit
  val cancel : t -> event -> bool
  val pending : t -> int
  val run_until : t -> Simtime.t -> unit
  val run : t -> unit
  val step : t -> bool
  val every : t -> Simtime.span -> (unit -> unit) -> event
end

let scripted_run (module S : SIM) =
  let sim = S.create () in
  let log = ref [] in
  let record tag () = log := (Simtime.to_ns (S.now sim), tag) :: !log in
  let result tag b = record (tag ^ if b then ":true" else ":false") () in
  ignore (S.at sim (Simtime.of_ns 50) (record "a50"));
  ignore (S.at sim (Simtime.of_ns 50) (record "b50"));
  let cancelled = S.at sim (Simtime.of_ns 75) (record "never") in
  ignore (S.cancel sim cancelled);
  ignore
    (S.after sim (Simtime.us 1) (fun () ->
         record "outer" ();
         ignore (S.after sim Simtime.span_zero (record "inner-now"));
         ignore (S.after sim (Simtime.us 3) (record "inner-later"))));
  let periodic = S.every sim (Simtime.us 2) (record "tick") in
  ignore (S.at sim (Simtime.of_ns 9_000) (fun () -> ignore (S.cancel sim periodic)));
  (* Zero-delay events from inside a firing event: the instant's later
     events first, then these in scheduling order; one is cancelled while
     pending, then again, and one after it fired. *)
  ignore (S.at sim (Simtime.of_ns 12_000) (record "queued-first"));
  ignore (S.at sim (Simtime.of_ns 11_000) (fun () ->
       record "spawner" ();
       ignore (S.at sim (Simtime.of_ns 12_000) (fun () ->
            S.post sim Simtime.span_zero (record "post-now");
            let doomed = S.after sim Simtime.span_zero (record "never-now") in
            let kept = S.at sim (S.now sim) (record "at-now") in
            result "cancel-pending-now" (S.cancel sim doomed);
            result "cancel-again" (S.cancel sim doomed);
            S.post sim Simtime.span_zero (fun () -> result "cancel-fired" (S.cancel sim kept))))));
  (* A series that cancels itself from its own third tick. *)
  let ticks = ref 0 in
  let self = ref None in
  self :=
    Some
      (S.every sim (Simtime.us 3) (fun () ->
           incr ticks;
           record "self-tick" ();
           if !ticks = 3 then Option.iter (fun e -> result "cancel-own-tick" (S.cancel sim e)) !self));
  S.run_until sim (Simtime.of_ns 20_000);
  Option.iter (fun e -> result "cancel-ended-series" (S.cancel sim e)) !self;
  (* A horizon equal to the clock fires what is scheduled at the clock. *)
  ignore (S.at sim (S.now sim) (record "at-clock"));
  S.run_until sim (S.now sim);
  ignore (S.after sim (Simtime.us 5) (record "late"));
  S.run sim;
  (* Stepping an empty queue leaves the clock where scheduling at it
     still works. *)
  result "step-empty" (S.step sim);
  ignore (S.at sim (S.now sim) (record "after-empty-step"));
  result "step" (S.step sim);
  (List.rev !log, Simtime.to_ns (S.now sim))

let test_sim_matches_reference () =
  let ref_log, ref_clock = scripted_run (module Sim_ref) in
  let sim_log, sim_clock = scripted_run (module Sim) in
  Alcotest.(check (list (pair int string))) "same firing sequence" ref_log sim_log;
  Alcotest.(check int) "same final clock" ref_clock sim_clock

(* Random schedules.  Every event logs its instant and id when it fires,
   then runs its actions, which may schedule (often at zero delay, so
   events join the running instant from inside firing events) or
   cancel (often the handle just made: a pending zero-delay [at]; or an
   arbitrary earlier one: fired, cancelled twice, or a series).  Top-level
   commands add [step] (also on an empty queue, followed by scheduling at
   the clock), [run_until] to horizons at, before and past the clock, and
   series that cancel themselves from one of their own ticks. *)

type action =
  | Spawn_at of int * action list (* delay >= 0 *)
  | Spawn_post of int * action list
  | Cancel_nth of int (* the handle made k-th, modulo the count *)
  | Cancel_last

type cmd =
  | At of int * action list
  | Post of int * action list
  | Every of int * int (* period; the tick that cancels the series *)
  | Cancel of int
  | Step
  | Run_until of int (* horizon relative to the clock *)
  | Pending

let gen_delay =
  QCheck2.Gen.(frequency [ (3, return 0); (3, int_range 1 20); (1, int_range 21 5_000) ])

let rec gen_actions depth =
  let open QCheck2.Gen in
  let sub = if depth = 0 then return [] else gen_actions (depth - 1) in
  list_size (int_range 0 3)
    (frequency
       [
         (3, map2 (fun d a -> Spawn_at (d, a)) gen_delay sub);
         (3, map2 (fun d a -> Spawn_post (d, a)) gen_delay sub);
         (1, map (fun k -> Cancel_nth k) (int_range 0 1000));
         (2, return Cancel_last);
       ])

let gen_cmd =
  let open QCheck2.Gen in
  frequency
    [
      (4, map2 (fun d a -> At (d, a)) gen_delay (gen_actions 2));
      (3, map2 (fun d a -> Post (d, a)) gen_delay (gen_actions 2));
      (1, map2 (fun p n -> Every (p, n)) (int_range 1 50) (int_range 1 6));
      (2, map (fun k -> Cancel k) (int_range 0 1000));
      (2, return Step);
      ( 2,
        map
          (fun d -> Run_until d)
          (frequency [ (2, return 0); (1, int_range (-5) 100); (1, int_range 101 10_000) ]) );
      (1, return Pending);
    ]

let random_run (module S : SIM) script =
  let sim = S.create () in
  let log = ref [] in
  let note tag a b = log := (tag, a, b) :: !log in
  let now () = Simtime.to_ns (S.now sim) in
  let handles = Hashtbl.create 64 in
  let keep ev = Hashtbl.replace handles (Hashtbl.length handles) ev in
  let cancel_nth k =
    let n = Hashtbl.length handles in
    if n > 0 then note 3 (k mod n) (Bool.to_int (S.cancel sim (Hashtbl.find handles (k mod n))))
  in
  let ids = ref 0 in
  let rec event acts =
    let id = !ids in
    incr ids;
    fun () ->
      note 1 (now ()) id;
      List.iter perform acts
  and perform = function
    | Spawn_at (d, acts) -> keep (S.at sim (Simtime.of_ns (now () + d)) (event acts))
    | Spawn_post (d, acts) -> S.post sim (Simtime.span_of_ns d) (event acts)
    | Cancel_nth k -> cancel_nth k
    | Cancel_last -> cancel_nth (Hashtbl.length handles - 1)
  in
  List.iter
    (function
      | At (d, acts) -> keep (S.at sim (Simtime.of_ns (now () + d)) (event acts))
      | Post (d, acts) -> S.post_at sim (Simtime.of_ns (now () + d)) (event acts)
      | Every (period, stop) ->
          let id = !ids in
          incr ids;
          let ticks = ref 0 in
          let self = ref None in
          let ev =
            S.every sim (Simtime.ns period) (fun () ->
                incr ticks;
                note 2 (now ()) id;
                if !ticks = stop then
                  Option.iter (fun e -> note 4 id (Bool.to_int (S.cancel sim e))) !self)
          in
          self := Some ev;
          keep ev
      | Cancel k -> cancel_nth k
      | Step ->
          let fired = S.step sim in
          note 5 (Bool.to_int fired) (now ())
      | Run_until d ->
          S.run_until sim (Simtime.of_ns (now () + d));
          note 6 (now ()) (S.pending sim)
      | Pending -> note 7 (S.pending sim) 0)
    script;
  (* A bounded drain: everything a script schedules fires within 20 us
     of its last command, and a series that fails to stop then shows as
     a pending event instead of a run that never ends. *)
  S.run_until sim (Simtime.of_ns (now () + 100_000));
  note 8 (now ()) (S.pending sim);
  List.rev !log

let prop_sim_random_schedule_equivalence =
  QCheck2.Test.make ~name:"random Sim schedules fire identically to the Heapq oracle" ~count:300
    QCheck2.Gen.(list_size (int_range 1 80) gen_cmd)
    (fun script -> random_run (module Sim_ref) script = random_run (module Sim) script)

(* The periodic fast lane's primitive: a popped node goes back in at a
   later priority, keeping the same handle (so cancellation still works),
   and a rearm while the node is queued, into the past or after a cancel
   is refused. *)
let test_rearm () =
  let w = Wheel.create () in
  let h = Wheel.insert w ~prio:10 "tick" in
  (try
     Wheel.rearm w h ~prio:20;
     Alcotest.fail "rearm of a queued node must raise"
   with Invalid_argument _ -> ());
  Alcotest.(check (option (pair int string))) "first firing" (Some (10, "tick")) (Wheel.pop_min w);
  Wheel.rearm w h ~prio:75;
  Alcotest.(check int) "rearmed node counts" 1 (Wheel.length w);
  Alcotest.(check (option (pair int string))) "second firing" (Some (75, "tick")) (Wheel.pop_min w);
  (try
     Wheel.rearm w h ~prio:5;
     Alcotest.fail "rearm below the lower bound must raise"
   with Invalid_argument _ -> ());
  Wheel.rearm w h ~prio:75;
  Alcotest.(check bool) "handle still cancellable" true (Wheel.cancel w h);
  Alcotest.(check bool) "wheel drained" true (Wheel.is_empty w);
  (try
     Wheel.rearm w h ~prio:200;
     Alcotest.fail "rearm of a cancelled node must raise"
   with Invalid_argument _ -> ())

(* Pooled fire-and-forget inserts (fire-once, handle dropped): recycled
   nodes must behave exactly like fresh ones — same FIFO among ties, clean interaction with the
   solo fast lane (repeated single-occupant pops), and no value leakage
   across reuse. *)
let test_pooled_inserts () =
  let w = Wheel.create () in
  (* Solo-lane churn: one pooled occupant at a time, popped repeatedly —
     the same node cycles through the free list each time. *)
  for i = 1 to 5 do
    ignore (Wheel.insert_oneshot w ~prio:(i * 10) i);
    Alcotest.(check (option (pair int int))) "solo pooled pop" (Some (i * 10, i)) (Wheel.pop_min w)
  done;
  (* Mixed ties: pooled and handled nodes at one priority keep insertion
     order, and a recycled pooled node re-queued mid-stream slots in
     FIFO like any fresh insert. *)
  ignore (Wheel.insert_oneshot w ~prio:100 1);
  ignore (Wheel.insert w ~prio:100 2);
  ignore (Wheel.insert_oneshot w ~prio:100 3);
  Alcotest.(check int) "three queued" 3 (Wheel.length w);
  Alcotest.(check (list int)) "FIFO among mixed ties" [ 1; 2; 3 ] (drain_wheel w);
  (* Cancellation of a handled node must not disturb pooled neighbours. *)
  ignore (Wheel.insert_oneshot w ~prio:200 10);
  let hc = Wheel.insert w ~prio:200 11 in
  ignore (Wheel.insert_oneshot w ~prio:300 12);
  Alcotest.(check bool) "cancel handled" true (Wheel.cancel w hc);
  Alcotest.(check (list int)) "pooled survive cancel" [ 10; 12 ] (drain_wheel w);
  (* clear must not strand pooled nodes in an inconsistent state. *)
  ignore (Wheel.insert_oneshot w ~prio:400 20);
  ignore (Wheel.insert_oneshot w ~prio:500 21);
  Wheel.clear w;
  Alcotest.(check bool) "cleared" true (Wheel.is_empty w);
  ignore (Wheel.insert_oneshot w ~prio:600 22);
  Alcotest.(check (option (pair int int))) "usable after clear" (Some (600, 22)) (Wheel.pop_min w)

(* Sim.post is the fire-and-forget lane end to end: posted events must
   fire in exactly the position an [at] at the same instant would, as in
   the reference, including nested posts from inside a firing event. *)
let test_sim_post_equivalence () =
  let run (module S : SIM) =
    let sim = S.create () in
    let log = ref [] in
    let record tag () = log := (Simtime.to_ns (S.now sim), tag) :: !log in
    S.post_at sim (Simtime.of_ns 40) (record "p40");
    ignore (S.at sim (Simtime.of_ns 40) (record "a40"));
    S.post_at sim (Simtime.of_ns 40) (record "q40");
    S.post sim (Simtime.us 1) (fun () ->
        record "outer" ();
        S.post sim Simtime.span_zero (record "inner-now");
        S.post sim (Simtime.us 2) (record "inner-later"));
    ignore (S.every sim (Simtime.us 1) (record "tick"));
    S.run_until sim (Simtime.of_ns 4_500);
    (List.rev !log, Simtime.to_ns (S.now sim))
  in
  let ref_log, ref_clock = run (module Sim_ref) in
  let sim_log, sim_clock = run (module Sim) in
  Alcotest.(check (list (pair int string))) "same firing sequence" ref_log sim_log;
  Alcotest.(check int) "same final clock" ref_clock sim_clock

(* Rearm must interleave correctly with fresh inserts: FIFO among ties
   places the rearmed node behind nodes already at that priority. *)
let test_rearm_tie_order () =
  let w = Wheel.create () in
  let h = Wheel.insert w ~prio:1 "recycled" in
  ignore (Wheel.pop_min w);
  ignore (Wheel.insert w ~prio:9 "fresh");
  Wheel.rearm w h ~prio:9;
  Alcotest.(check (list string)) "behind existing ties" [ "fresh"; "recycled" ] (drain_wheel w)

let suite =
  [
    Alcotest.test_case "empty wheel" `Quick test_empty;
    Alcotest.test_case "rearm recycles a node" `Quick test_rearm;
    Alcotest.test_case "rearm tie order" `Quick test_rearm_tie_order;
    Alcotest.test_case "min ordering" `Quick test_ordering;
    Alcotest.test_case "FIFO among ties" `Quick test_fifo_ties;
    Alcotest.test_case "cancellation" `Quick test_cancel;
    Alcotest.test_case "far priorities cascade" `Quick test_far_priorities;
    Alcotest.test_case "past insert rejected" `Quick test_insert_below_lower_bound_rejected;
    Alcotest.test_case "insert at lower bound" `Quick test_insert_at_lower_bound_ok;
    Alcotest.test_case "pop_min_until commits horizon" `Quick test_pop_min_until_commits_horizon;
    Alcotest.test_case "extract, take and cancel" `Quick test_extract_take_cancel;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "pooled inserts recycle cleanly" `Quick test_pooled_inserts;
    Alcotest.test_case "scripted Sim equivalence" `Quick test_sim_matches_reference;
    Alcotest.test_case "Sim.post fires like Sim.at" `Quick test_sim_post_equivalence;
    QCheck_alcotest.to_alcotest prop_wheel_matches_heap;
    QCheck_alcotest.to_alcotest prop_pop_until_equals_peek_and_pop;
    QCheck_alcotest.to_alcotest prop_sim_random_schedule_equivalence;
  ]
