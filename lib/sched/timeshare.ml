module Simtime = Engine.Simtime
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Binding = Rescont.Binding

(* An all-float record gets the flat float representation, so writing the
   field stores an unboxed float — the pick path's scratch accumulators
   live in cells like this instead of [float ref]s, which would box on
   every store. *)
type fcell = { mutable fv : float }

let make ?(tau = Simtime.sec 1) () =
  let tau_ns = float_of_int (Simtime.span_to_ns tau) in
  if tau_ns <= 0. then invalid_arg "Timeshare.make: tau must be positive";
  let runq = Runq.create () in
  (* Per-container decay state as two flat arrays indexed by
     [Container.slot] (dense per-run creation order, never reused):
     the decayed usage as settled at [dlast.(slot)] nanoseconds.  Same
     semantics as the [Spec.Decay] record module — which stays as the unit-
     tested reference — but the badness scan over a binding set becomes
     plain float-array reads instead of a hash probe plus record chase
     per member. *)
  let cap = ref 64 in
  let dval = ref (Array.make !cap 0.) in
  let dlast = ref (Array.make !cap 0) in
  let ensure slot =
    if slot >= !cap then begin
      let n = ref (!cap * 2) in
      while slot >= !n do
        n := !n * 2
      done;
      let nv = Array.make !n 0. and nl = Array.make !n 0 in
      Array.blit !dval 0 nv 0 !cap;
      Array.blit !dlast 0 nl 0 !cap;
      dval := nv;
      dlast := nl;
      cap := !n
    end
  in
  (* [Spec.Decay.settle] over the arrays: exponential decay of the stored
     value to [now_ns], idempotent within a timestamp. *)
  let settle slot now_ns =
    let last = Array.unsafe_get !dlast slot in
    if now_ns > last then begin
      let v = Array.unsafe_get !dval slot in
      Array.unsafe_set !dval slot (v *. exp (-.float_of_int (now_ns - last) /. tau_ns));
      Array.unsafe_set !dlast slot now_ns
    end
  in
  (* Lower badness runs first: recent usage divided by priority weight.
     For the thread actually at the head of a container's queue, the usage
     is the {e combined} decayed usage of the thread's whole scheduler
     binding, and the priority the best among those containers — a thread
     multiplexed over several activities is scheduled by the set, not by
     whichever container it happens to be bound to right now (§4.3).

     The scan runs once per dispatch, so it is written allocation-free:
     scratch cells hoisted out of the closures, a single pass over the
     run-queue's busy containers instead of materialised candidate lists,
     and the binding set folded in place rather than sorted.  Ties on
     badness resolve to the container visited last, the newest (the run
     queue visits in ascending id), exactly as the old list-building pick
     did (it consed the candidates up in visit order, reversing them, then
     kept the first minimum). *)
  let cur_now_ns = ref 0 in
  let usage_sum = { fv = 0. } in
  let prio_max = ref 0 in
  let badness = { fv = 0. } in
  let add_binding_member c =
    let slot = Container.slot c in
    ensure slot;
    settle slot !cur_now_ns;
    usage_sum.fv <- usage_sum.fv +. Array.unsafe_get !dval slot;
    let p = (Container.attrs c).Attrs.priority in
    if p > !prio_max then prio_max := p
  in
  (* Leaves its result in [badness]: a float returned from a closure is
     boxed. *)
  let badness_of_task task =
    usage_sum.fv <- 0.;
    prio_max := 0;
    Binding.iter_scheduler_containers task.Task.binding add_binding_member;
    badness.fv <- usage_sum.fv /. float_of_int (max 1 !prio_max)
  in
  let best_regular = ref Task.none in
  let best_regular_bad = { fv = 0. } in
  let best_idle = ref Task.none in
  let best_idle_bad = { fv = 0. } in
  let consider container =
    let task = Runq.front runq container in
    if not (Task.is_none task) then begin
      badness_of_task task;
      let b = badness.fv in
      if Attrs.is_idle_class (Container.attrs container) then begin
        if Task.is_none !best_idle || b <= best_idle_bad.fv then begin
          best_idle := task;
          best_idle_bad.fv <- b
        end
      end
      else if Task.is_none !best_regular || b <= best_regular_bad.fv then begin
        best_regular := task;
        best_regular_bad.fv <- b
      end
    end
  in
  let pick ~now =
    cur_now_ns := Simtime.to_ns now;
    best_regular := Task.none;
    best_idle := Task.none;
    Runq.iter_busy runq consider;
    if Task.is_none !best_regular then !best_idle else !best_regular
  in
  let charge ~container ~now span =
    let slot = Container.slot container in
    ensure slot;
    settle slot (Simtime.to_ns now);
    let v = Array.unsafe_get !dval slot in
    Array.unsafe_set !dval slot (v +. float_of_int (Simtime.span_to_ns span));
    Runq.rotate runq container
  in
  {
    Policy.name = "timeshare";
    enqueue = Runq.enqueue runq;
    dequeue = Runq.dequeue runq;
    requeue = Runq.requeue runq;
    pick;
    charge;
    next_release = (fun ~now:_ -> None);
    runnable_count = (fun () -> Runq.count runq);
  }
