module Simtime = Engine.Simtime
module Sim = Engine.Sim
module Container = Rescont.Container
module Binding = Rescont.Binding
module Attrs = Rescont.Attrs
module Task = Sched.Task

type state = Ready | Running | Blocked | Done

type thread = {
  task : Task.t;
  mutable state : state;
  mutable pending : int; (* ns of requested CPU still to consume *)
  mutable kernel_mode : bool; (* mode of the pending request *)
  mutable cont : (unit, unit) Effect.Deep.continuation; (* [no_cont] unless suspended *)
  mutable entry : (unit -> unit) option; (* body not yet started *)
  mutable ready_since : Simtime.t; (* when it last became runnable *)
  pinned : bool; (* spawned with an explicit home CPU: never migrated *)
  mutable wake : unit -> unit; (* [sleep]'s wake-up event, made on its first sleep *)
  mutable wq_next : thread; (* the next waiter on the wait queue holding it *)
}

(* The dispatch cycle runs once per slice, so it stores no option: a
   fresh [Some] per slice would be a young block written into a
   long-lived record.  The absent values are sentinels compared with
   [==].  [no_cont] is never continued; a continuation is a block, so no
   real one equals it. *)
let no_cont : (unit, unit) Effect.Deep.continuation = Obj.magic 0
let no_wake () = ()

let rec no_thread =
  { task = Task.none; state = Done; pending = 0; kernel_mode = false; cont = no_cont;
    entry = None; ready_since = Simtime.zero; pinned = true; wake = no_wake;
    wq_next = no_thread }

(* One dispatch record per processor, allocated at machine creation and
   reused for every slice (a record, a [Some] box and an end-of-slice
   closure per dispatch otherwise add up to the single largest allocation
   stream in a run).  [d_thread] is only meaningful while the slot is
   occupied ([currents.(cpu)] is [Some]); between slices it retains the
   previous occupant ([no_thread] before the first), which pins nothing
   beyond the thread table. *)
type dispatch = {
  mutable d_thread : thread;
  d_cpu : int; (* which processor the slice runs on *)
  mutable d_work : int; (* ns of work in this slice *)
  mutable d_end_time : Simtime.t; (* wall-clock end, grows when time is stolen *)
  mutable d_end_event : Sim.event;
  mutable d_fin : unit -> unit; (* preallocated [finish_slice] thunk *)
}

(* The effect handlers, allocated once per machine.  [effc] used to build
   a fresh [Some (fun k -> ...)] closure on every perform — a steady
   per-request allocation stream on the packet path.  Each handler reads
   the performing thread from [exec] (always set while thread code runs);
   [effc] stores any effect payload before handing the handler back. *)
type handlers = {
  h_cpu : ((unit, unit) Effect.Deep.continuation -> unit) option;
  h_sleep : ((unit, unit) Effect.Deep.continuation -> unit) option;
  h_yield : ((unit, unit) Effect.Deep.continuation -> unit) option;
  h_wait : ((unit, unit) Effect.Deep.continuation -> unit) option;
  h_self : ((thread, unit) Effect.Deep.continuation -> unit) option;
}

type t = {
  sim : Sim.t;
  shards : Sched.Policy.t array; (* one run-queue shard per processor, all distinct *)
  root : Container.t;
  quantum : int;
  currents : dispatch option array; (* one slot per processor *)
  mutable dispatch_pool : dispatch array; (* the per-cpu reusable records *)
  mutable dispatch_some : dispatch option array; (* preallocated [Some pool.(cpu)] *)
  mutable exec : thread; (* thread whose OCaml code is running, else [no_thread] *)
  mutable kick_pending : bool;
  mutable timed_kick : Simtime.t; (* earliest outstanding timed dispatch wake-up;
                                     in the past = none outstanding *)
  mutable kick_fn : unit -> unit; (* preallocated: clears kick_pending, dispatches *)
  mutable dispatch_fn : unit -> unit; (* preallocated [dispatch_next] thunk *)
  mutable dummy_event : Sim.event; (* inert cancelled event; fresh dispatches start here *)
  irq_busy_until : Simtime.t array; (* per-CPU: until when steered interrupt
                                       work keeps that processor from
                                       dispatching while otherwise idle *)
  mutable busy : int; (* total ns consumed, all processors *)
  busy_cpu : int array; (* ns consumed per processor; sums to [busy] *)
  mutable threads : thread list;
  mutable tslots : thread array; (* indexed by [Task.mslot]; grows, never shrinks *)
  mutable tslot_used : int;
  mutable on_idle : unit -> unit;
  invariants : Engine.Invariant.t;
  trace : Engine.Tracelog.t;
  metrics : Engine.Metrics.t;
  c_dispatches : Engine.Metrics.counter;
  c_preemptions : Engine.Metrics.counter;
  c_spawns : Engine.Metrics.counter;
  c_kills : Engine.Metrics.counter;
  c_rebinds : Engine.Metrics.counter;
  c_irq_steals : Engine.Metrics.counter;
  c_migrations : Engine.Metrics.counter;
  mutable handlers : handlers; (* installed by [create], before any thread runs *)
  mutable eff_sleep_ns : int; (* E_sleep payload, valid only inside [effc] *)
}

(* Wait queues participate in the effect type and in [t], so they live in
   the recursive group.  The waiters are a FIFO linked through
   [wq_next]: a thread waits on one queue at a time, so waiting costs no
   queue cell. *)
and waitq = {
  wq_name : string;
  wq_machine : t;
  mutable wq_head : thread; (* oldest waiter, [no_thread] when none *)
  mutable wq_tail : thread;
  mutable wq_len : int;
}

type _ Effect.t +=
  | E_cpu : { cost : int; kernel : bool } -> unit Effect.t
  | E_sleep : int -> unit Effect.t
  | E_yield : unit Effect.t
  | E_self : thread Effect.t
  | E_wait : waitq -> unit Effect.t

let sim m = m.sim
let now m = Sim.now m.sim
let root m = m.root
let system_container m = m.root
let busy_time m = Simtime.span_of_ns m.busy

let busy_time_on m cpu =
  if cpu < 0 || cpu >= Array.length m.busy_cpu then
    invalid_arg "Machine.busy_time_on: no such processor";
  Simtime.span_of_ns m.busy_cpu.(cpu)

(* The shard whose run queue currently holds (or last held) the task.
   Every enqueue/dequeue/requeue for a task must go through its home shard:
   run-queue membership is intrusive (Sched.Runq stamps the task), so a
   dequeue against the wrong shard silently does nothing. *)
let home_pol m (thread : thread) = m.shards.(thread.task.Task.home_cpu)
let thread_name thread = thread.task.Task.name
let binding thread = thread.task.Task.binding
let is_done thread = thread.state = Done

let trace m = m.trace
let metrics m = m.metrics

let tracing m = Engine.Tracelog.enabled m.trace
let tell m ev = Engine.Tracelog.event m.trace (now m) ev

let charge_to m container ~kernel ~cpu span_ns =
  if span_ns > 0 then begin
    let span = Simtime.span_of_ns span_ns in
    Container.charge_cpu container ~kernel span;
    m.shards.(cpu).Sched.Policy.charge ~container ~now:(now m) span;
    m.busy <- m.busy + span_ns;
    m.busy_cpu.(cpu) <- m.busy_cpu.(cpu) + span_ns;
    if tracing m then
      tell m
        (Engine.Trace_event.Charge
           {
             resource = Engine.Trace_event.Cpu;
             cid = Container.id container;
             container = Container.name container;
             amount = span_ns;
           })
  end

let cpus m = Array.length m.currents

(* The machine is idle only when no processor from [i] on has a slice in
   flight AND none is held by steered interrupt work: a Ready kthread
   pinned to an irq-held CPU is committed future work, and signalling the
   idle hook over its head would re-wake (and re-block) its peers in an
   infinite same-instant loop.  This and the dispatch loops below recurse
   on [m] rather than through local closures, which would be allocated
   on every call. *)
let rec slots_free_from m i =
  i >= cpus m
  || (match m.currents.(i) with
     | Some _ -> false
     | None -> Simtime.(now m >= m.irq_busy_until.(i)) && slots_free_from m (i + 1))

let wq_push wq thread =
  if wq.wq_len = 0 then wq.wq_head <- thread else wq.wq_tail.wq_next <- thread;
  wq.wq_tail <- thread;
  wq.wq_len <- wq.wq_len + 1

let wq_pop wq =
  let thread = wq.wq_head in
  wq.wq_head <- thread.wq_next;
  thread.wq_next <- no_thread;
  wq.wq_len <- wq.wq_len - 1;
  if wq.wq_len = 0 then wq.wq_tail <- no_thread;
  thread

(* Run a suspended or fresh thread's code until its next effect. *)
let rec resume_thread m thread =
  let previous = m.exec in
  m.exec <- thread;
  (match thread.entry with
  | Some body ->
      thread.entry <- None;
      start_body m thread body
  | None ->
      let k = thread.cont in
      if k != no_cont then begin
        thread.cont <- no_cont;
        Effect.Deep.continue k ()
      end);
  m.exec <- previous

and start_body m thread body =
  let open Effect.Deep in
  match_with body ()
    {
      retc =
        (fun () ->
          thread.state <- Done;
          (home_pol m thread).Sched.Policy.dequeue thread.task;
          Binding.drop thread.task.Task.binding);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          (* The payload is stashed on [m] or on the thread (the waiter
             joins its queue) here, and the matching preallocated handler
             — which runs immediately, before anything else can touch the
             scratch cells — picks it up.  [m.exec] is the performing
             thread. *)
          match eff with
          | E_cpu { cost; kernel } ->
              thread.pending <- max 0 cost;
              thread.kernel_mode <- kernel;
              m.handlers.h_cpu
          | E_sleep span_ns ->
              m.eff_sleep_ns <- span_ns;
              m.handlers.h_sleep
          | E_yield -> m.handlers.h_yield
          | E_wait wq ->
              wq_push wq thread;
              m.handlers.h_wait
          | E_self -> m.handlers.h_self
          | _ -> None);
    }

and make_runnable m thread =
  if thread.state = Blocked then begin
    thread.state <- Ready;
    thread.ready_since <- now m;
    (home_pol m thread).Sched.Policy.enqueue thread.task;
    kick m
  end

and kick m =
  if not m.kick_pending then begin
    m.kick_pending <- true;
    Sim.post m.sim Simtime.span_zero m.kick_fn
  end

(* Timed dispatch wake-ups (irq drain, throttle release).  On an SMP
   machine every dispatch pass may want one per processor, and a pass runs
   per posted event — posting unconditionally doubles the queued wake-ups
   per generation (K events at one drain instant each post K' more), an
   exponential event storm under sustained interrupt load.  One
   outstanding timed kick is enough: the pass it triggers re-examines
   every processor and re-posts the next-earliest wake-up.  Post only when
   none is outstanding ([timed_kick] in the past) or a strictly earlier
   one is needed; a superseded later event still fires and costs one
   harmless no-op pass.  The uniprocessor keeps the direct post — at most
   one wake-up per pass, and the historical event order is part of the
   machine's committed single-CPU behaviour. *)
and kick_at m time =
  if cpus m = 1 then Sim.post_at m.sim time m.dispatch_fn
  else if Simtime.(m.timed_kick <= now m) || Simtime.(time < m.timed_kick) then begin
    m.timed_kick <- time;
    Sim.post_at m.sim time m.dispatch_fn
  end

(* Pick the next runnable thread out of one policy shard, [no_thread] if
   none.  Thread lookup is an array load off the task's machine slot
   (stamped at spawn); the identity check rejects a task this machine
   never spawned, which is then dropped from the queue and the pick
   retried. *)
and pick_thread m pol =
  let task = pol.Sched.Policy.pick ~now:(now m) in
  if Task.is_none task then no_thread
  else
    let s = task.Task.mslot in
    if s < 0 || s >= m.tslot_used || (Array.unsafe_get m.tslots s).task != task then begin
      pol.Sched.Policy.dequeue task;
      pick_thread m pol
    end
    else Array.unsafe_get m.tslots s

(* Move a runnable thread between run-queue shards.  The thread can only
   gain service: it leaves a more-loaded queue for a strictly less-loaded
   one, so whatever share its container was guaranteed of the old
   processor it now gets at least of the new one. *)
and migrate m thread ~to_cpu =
  let task = thread.task in
  let from_cpu = task.Task.home_cpu in
  m.shards.(from_cpu).Sched.Policy.dequeue task;
  task.Task.home_cpu <- to_cpu;
  m.shards.(to_cpu).Sched.Policy.enqueue task;
  Engine.Metrics.incr m.c_migrations;
  if tracing m then
    tell m (Engine.Trace_event.Migrate { thread = task.Task.name; from_cpu; to_cpu })

(* Work stealing: an otherwise-idle processor pulls one runnable thread
   from another shard's queue rather than idling, visiting the shards
   from [cpu + k] on.  Pinned threads (per-CPU kernel threads) are never
   stolen. *)
and steal_from m ~cpu k =
  let n = cpus m in
  if k >= n then no_thread
  else
    let thread = pick_thread m m.shards.((cpu + k) mod n) in
    if thread != no_thread && (not thread.pinned) && thread.state = Ready
       && thread.task.Task.home_cpu <> cpu
    then begin
      migrate m thread ~to_cpu:cpu;
      thread
    end
    else steal_from m ~cpu (k + 1)

and dispatch_next m = dispatch_from m 0

and dispatch_from m cpu =
  if cpu >= cpus m then begin
    (* Idle is a machine-wide condition: signal it only when no processor
       has a slice in flight, never while another CPU is mid-slice (the
       hook runs idle-class protocol processing, which must not compete
       with committed work). *)
    if slots_free_from m 0 then m.on_idle ()
  end
  else
    match m.currents.(cpu) with
    | Some _ -> dispatch_from m (cpu + 1)
    | None ->
        if Simtime.(now m < m.irq_busy_until.(cpu)) then begin
          (* Steered interrupt work holds this processor; try again when
             it drains.  Other processors may still dispatch. *)
          kick_at m m.irq_busy_until.(cpu);
          dispatch_from m (cpu + 1)
        end
        else begin
          let pol = m.shards.(cpu) in
          let thread =
            let local = pick_thread m pol in
            if local == no_thread then steal_from m ~cpu 1 else local
          in
          if thread == no_thread then begin
            (match pol.Sched.Policy.next_release ~now:(now m) with
            | Some t when Simtime.(t > now m) -> kick_at m t
            | Some _ | None -> ());
            dispatch_from m (cpu + 1)
          end
          else if thread.pending <= 0 then begin
            (* Nothing to burn: run the thread's code to its next effect,
               then look again. *)
            (home_pol m thread).Sched.Policy.dequeue thread.task;
            resume_thread m thread;
            dispatch_from m cpu
          end
          else begin
            start_slice m thread ~cpu;
            dispatch_from m (cpu + 1)
          end
        end

and start_slice m thread ~cpu =
  let work = min m.quantum thread.pending in
  Engine.Metrics.incr m.c_dispatches;
  if tracing m then begin
    let c = Binding.resource_binding thread.task.Task.binding in
    tell m
      (Engine.Trace_event.Dispatch
         {
           cpu;
           thread = thread.task.Task.name;
           cid = Container.id c;
           container = Container.name c;
           work_ns = work;
         })
  end;
  thread.state <- Running;
  (* A running task leaves the policy's queues so another processor cannot
     pick it concurrently; it re-enters at slice end. *)
  (home_pol m thread).Sched.Policy.dequeue thread.task;
  let d = m.dispatch_pool.(cpu) in
  d.d_thread <- thread;
  d.d_work <- work;
  d.d_end_time <- Simtime.add (now m) (Simtime.span_of_ns work);
  d.d_end_event <- Sim.at m.sim d.d_end_time d.d_fin;
  m.currents.(cpu) <- m.dispatch_some.(cpu)

and finish_slice m d =
  m.currents.(d.d_cpu) <- None;
  let thread = d.d_thread in
  let container = Binding.resource_binding thread.task.Task.binding in
  charge_to m container ~kernel:thread.kernel_mode ~cpu:d.d_cpu d.d_work;
  Binding.touch thread.task.Task.binding ~now:(now m);
  if thread.state = Done then (* killed mid-slice *) ()
  else begin
    thread.pending <- thread.pending - d.d_work;
    if thread.pending <= 0 then begin
      thread.state <- Ready;
      resume_thread m thread
    end
    else begin
      Engine.Metrics.incr m.c_preemptions;
      if tracing m then
        tell m
          (Engine.Trace_event.Preempt
             { cpu = d.d_cpu; thread = thread.task.Task.name; remaining_ns = thread.pending });
      thread.state <- Ready;
      thread.ready_since <- now m;
      (home_pol m thread).Sched.Policy.enqueue thread.task
    end
  end;
  dispatch_next m

(* Periodic container-aware rebalance: while the deepest and shallowest
   shards differ by at least two runnable tasks, move one unpinned task
   toward the shallow shard.  Only strictly-less-loaded destinations are
   chosen, so per-container fixed-share guarantees can only improve for
   the migrated task (see [migrate]). *)
let rebalance m =
  let n = cpus m in
  let moved = ref false in
  let halt = ref false in
  while not !halt do
    let imax = ref 0 and imin = ref 0 in
    for i = 1 to n - 1 do
      let c = m.shards.(i).Sched.Policy.runnable_count () in
      if c > m.shards.(!imax).Sched.Policy.runnable_count () then imax := i;
      if c < m.shards.(!imin).Sched.Policy.runnable_count () then imin := i
    done;
    let cmax = m.shards.(!imax).Sched.Policy.runnable_count ()
    and cmin = m.shards.(!imin).Sched.Policy.runnable_count () in
    if cmax - cmin < 2 then halt := true
    else
      let thread = pick_thread m m.shards.(!imax) in
      if thread != no_thread && (not thread.pinned) && thread.state = Ready then begin
        migrate m thread ~to_cpu:!imin;
        moved := true
      end
      else halt := true
  done;
  if !moved then kick m

(* Tasks queued across every shard.  A loop rather than a fold: the
   network stack asks on every service pick. *)
let runnable_tasks m =
  let n = ref 0 in
  for i = 0 to Array.length m.shards - 1 do
    n := !n + m.shards.(i).Sched.Policy.runnable_count ()
  done;
  !n

let rebalance_interval = Simtime.ms 5

(* How long a runnable non-idle thread may wait while an idle-class
   thread holds its processor before [sched.no-idle-starvation] fails. *)
let starvation_bound_ns = Simtime.span_to_ns (Simtime.ms 100)

let create ?(cpus = 1) ?(quantum = Simtime.ms 1) ?(prune_interval = Simtime.ms 100)
    ?(prune_age = Simtime.ms 500) ?trace ?invariants ~sim ~policy ~root () =
  if cpus <= 0 then invalid_arg "Machine.create: cpus must be positive";
  (* Run-queue membership is intrusive (a task records the one queue
     holding it), so two processors must never share a policy. *)
  let shards = Array.init cpus (fun _ -> policy ()) in
  for i = 1 to cpus - 1 do
    for j = 0 to i - 1 do
      if shards.(j) == shards.(i) then
        invalid_arg
          (Printf.sprintf "Machine.create: processors %d and %d got the same policy" j i)
    done
  done;
  let trace = match trace with Some t -> t | None -> Engine.Tracelog.create () in
  let metrics = Engine.Metrics.create () in
  let invariants =
    match invariants with Some i -> i | None -> Engine.Invariant.create ()
  in
  let m =
    {
      sim;
      shards;
      root;
      quantum = Simtime.span_to_ns quantum;
      currents = Array.make cpus None;
      dispatch_pool = [||]; (* filled below, once [m] exists *)
      dispatch_some = [||];
      exec = no_thread;
      kick_pending = false;
      timed_kick = Simtime.zero;
      kick_fn = ignore;
      dispatch_fn = ignore;
      dummy_event = (let e = Sim.after sim Simtime.span_zero (fun () -> ()) in
                     ignore (Sim.cancel sim e);
                     e);
      irq_busy_until = Array.make cpus Simtime.zero;
      busy = 0;
      busy_cpu = Array.make cpus 0;
      threads = [];
      tslots = [||];
      tslot_used = 0;
      on_idle = (fun () -> ());
      invariants;
      trace;
      metrics;
      c_dispatches = Engine.Metrics.counter metrics "sched.dispatches";
      c_preemptions = Engine.Metrics.counter metrics "sched.preemptions";
      c_spawns = Engine.Metrics.counter metrics "machine.spawns";
      c_kills = Engine.Metrics.counter metrics "machine.kills";
      c_rebinds = Engine.Metrics.counter metrics "machine.rebinds";
      c_irq_steals = Engine.Metrics.counter metrics "machine.irq_steals";
      c_migrations = Engine.Metrics.counter metrics "machine.migrations";
      handlers = { h_cpu = None; h_sleep = None; h_yield = None; h_wait = None; h_self = None };
      eff_sleep_ns = 0;
    }
  in
  let exec_thread () =
    let thread = m.exec in
    if thread == no_thread then invalid_arg "Machine: effect performed outside a machine thread";
    thread
  in
  m.handlers <-
    {
      h_cpu =
        Some
          (fun k ->
            let thread = exec_thread () in
            thread.cont <- k;
            thread.state <- Ready;
            thread.ready_since <- now m;
            (home_pol m thread).Sched.Policy.enqueue thread.task;
            kick m);
      h_sleep =
        Some
          (fun k ->
            let thread = exec_thread () in
            thread.cont <- k;
            thread.state <- Blocked;
            (home_pol m thread).Sched.Policy.dequeue thread.task;
            if thread.wake == no_wake then thread.wake <- (fun () -> make_runnable m thread);
            Sim.post m.sim (Simtime.span_of_ns m.eff_sleep_ns) thread.wake);
      h_yield =
        Some
          (fun k ->
            let thread = exec_thread () in
            thread.cont <- k;
            thread.state <- Ready;
            thread.ready_since <- now m;
            (home_pol m thread).Sched.Policy.enqueue thread.task;
            kick m);
      h_wait =
        Some
          (fun k ->
            let thread = exec_thread () in
            thread.cont <- k;
            thread.state <- Blocked;
            (home_pol m thread).Sched.Policy.dequeue thread.task);
      h_self = Some (fun k -> Effect.Deep.continue k (exec_thread ()));
    };
  m.kick_fn <-
    (fun () ->
      m.kick_pending <- false;
      dispatch_next m);
  m.dispatch_fn <- (fun () -> dispatch_next m);
  m.dispatch_pool <-
    Array.init cpus (fun cpu ->
        let d =
          { d_thread = no_thread; d_cpu = cpu; d_work = 0; d_end_time = Simtime.zero;
            d_end_event = m.dummy_event; d_fin = ignore }
        in
        d.d_fin <- (fun () -> finish_slice m d);
        d);
  m.dispatch_some <- Array.map (fun d -> Some d) m.dispatch_pool;
  Engine.Metrics.gauge metrics "machine.busy_ns" (fun () -> float_of_int m.busy);
  Engine.Metrics.gauge metrics "machine.runnable_tasks" (fun () ->
      float_of_int (runnable_tasks m));
  (* Per-CPU gauges only at cpus > 1, so uniprocessor metric snapshots are
     unchanged by the SMP work. *)
  if cpus > 1 then
    for i = 0 to cpus - 1 do
      Engine.Metrics.gauge metrics (Printf.sprintf "machine.busy_ns.cpu%d" i) (fun () ->
          float_of_int m.busy_cpu.(i))
    done;
  if cpus > 1 then ignore (Sim.every sim rebalance_interval (fun () -> rebalance m));
  Engine.Metrics.gauge metrics "rc.root.cpu_ns" (fun () ->
      float_of_int (Rescont.Usage.cpu_ns (Container.subtree_usage root)));
  Engine.Metrics.gauge metrics "rc.root.memory_bytes" (fun () ->
      float_of_int (Rescont.Usage.mem_bytes (Container.subtree_usage root)));
  (* Periodic pruning of scheduler-binding sets (paper §4.3). *)
  ignore
    (Sim.every sim prune_interval (fun () ->
         m.threads <- List.filter (fun thread -> thread.state <> Done) m.threads;
         List.iter
           (fun thread ->
             ignore
               (Binding.prune thread.task.Task.binding ~now:(now m) ~max_age:prune_age))
           m.threads));
  (* Conservation laws (paper §4.4: every consumed unit lands on exactly
     one container).  Registered always; they only run when the registry is
     checked, so the fast paths pay nothing. *)
  let module I = Engine.Invariant in
  I.register invariants ~law:"cpu.conservation" (fun () ->
      (* Every nanosecond the machine consumed must have rolled up into the
         root's subtree usage — a charge to a detached container increments
         [busy] without reaching the root and is caught here. *)
      I.equal_int ~what:"machine busy ns vs root-subtree cpu ns" m.busy
        (Simtime.span_to_ns (Rescont.Usage.cpu_total (Container.subtree_usage root))));
  I.register invariants ~law:"cpu.per-cpu-conservation" (fun () ->
      (* The per-processor counters must partition the global sum, and no
         processor can have consumed more time than its committed horizon
         (now, extended by any in-flight slice or steered interrupt work —
         [steal_time] charges eagerly while pushing the end of the slice
         into the future). *)
      let sum = Array.fold_left ( + ) 0 m.busy_cpu in
      match I.equal_int ~what:"sum of per-cpu busy ns vs machine busy ns" sum m.busy with
      | Error _ as e -> e
      | Ok () ->
          let bad = ref (Ok ()) in
          for i = 0 to Array.length m.busy_cpu - 1 do
            match !bad with
            | Error _ -> ()
            | Ok () ->
                let horizon =
                  let h =
                    match m.currents.(i) with
                    | Some d -> Simtime.max d.d_end_time m.irq_busy_until.(i)
                    | None -> m.irq_busy_until.(i)
                  in
                  Simtime.to_ns (Simtime.max (now m) h)
                in
                if m.busy_cpu.(i) > horizon then
                  bad :=
                    Error
                      (Printf.sprintf "cpu%d busy %d ns exceeds committed horizon %d ns" i
                         m.busy_cpu.(i) horizon)
          done;
          !bad);
  I.register invariants ~law:"cpu.subtree-rollup" (fun () ->
      (* Own usage summed over the live subtree can only fall short of the
         root's subtree aggregate by what destroyed containers consumed —
         never exceed it. *)
      let own = ref 0 in
      Container.iter_subtree
        (fun c -> own := !own + Simtime.span_to_ns (Rescont.Usage.cpu_total (Container.usage c)))
        root;
      I.leq_int ~what:"live-subtree own cpu ns vs root-subtree aggregate ns" !own
        (Simtime.span_to_ns (Rescont.Usage.cpu_total (Container.subtree_usage root))));
  I.register invariants ~law:"memory.non-negative" (fun () ->
      let bad = ref (Ok ()) in
      Container.iter_subtree
        (fun c ->
          match !bad with
          | Error _ -> ()
          | Ok () ->
              let own = Rescont.Usage.memory_bytes (Container.usage c) in
              let sub = Rescont.Usage.memory_bytes (Container.subtree_usage c) in
              if own < 0 then
                bad := I.non_negative ~what:(Container.name c ^ " memory_bytes") own
              else if sub < 0 then
                bad := I.non_negative ~what:(Container.name c ^ " subtree memory_bytes") sub)
        root;
      !bad);
  I.register invariants ~law:"sched.no-idle-starvation" (fun () ->
      (* Checked per processor: an idle-class thread holding cpu [i] only
         starves a non-idle thread homed on the same shard (the scheduler
         prefers non-idle work within a shard; a backlog on a *different*
         saturated shard is ordinary queueing, not an idle-semantics
         violation).  On a uniprocessor this is the global law. *)
      let container_of th = Binding.resource_binding th.task.Task.binding in
      let now_ns = Simtime.to_ns (now m) in
      let starved_on cpu =
        List.find_opt
          (fun th ->
            th.state = Ready
            && th.task.Task.home_cpu = cpu
            && (not (Attrs.is_idle_class (Container.attrs (container_of th))))
            && now_ns - Simtime.to_ns th.ready_since > starvation_bound_ns)
          m.threads
      in
      let bad = ref (Ok ()) in
      for cpu = 0 to Array.length m.currents - 1 do
        match !bad with
        | Error _ -> ()
        | Ok () -> (
            match m.currents.(cpu) with
            | Some d when Attrs.is_idle_class (Container.attrs (container_of d.d_thread))
              -> (
                match starved_on cpu with
                | None -> ()
                | Some th ->
                    bad :=
                      Error
                        (Printf.sprintf
                           "thread %s (container %s) runnable for %d ns while idle-class runs on cpu%d"
                           th.task.Task.name
                           (Container.name (container_of th))
                           (now_ns - Simtime.to_ns th.ready_since)
                           cpu))
            | Some _ | None -> ())
      done;
      !bad);
  m

(* Initial placement: the least-loaded shard, counting both queued tasks
   and an occupied processor slot; ties go to the lowest CPU. *)
let place m =
  let best = ref 0 and best_score = ref max_int in
  for i = 0 to cpus m - 1 do
    let score =
      m.shards.(i).Sched.Policy.runnable_count ()
      + (match m.currents.(i) with Some _ -> 1 | None -> 0)
    in
    if score < !best_score then begin
      best := i;
      best_score := score
    end
  done;
  !best

let spawn m ?(kernel = false) ?cpu ~name ~container body =
  Engine.Metrics.incr m.c_spawns;
  if tracing m then
    tell m
      (Engine.Trace_event.Spawn
         { thread = name; cid = Container.id container; container = Container.name container });
  let b = Binding.create ~now:(now m) container in
  let task = Task.create ~kernel ~name b in
  let home, pinned =
    match cpu with
    | Some c ->
        if c < 0 || c >= cpus m then invalid_arg "Machine.spawn: no such processor";
        (c, true)
    | None -> (place m, false)
  in
  task.Task.home_cpu <- home;
  let thread =
    { task; state = Blocked; pending = 0; kernel_mode = kernel; cont = no_cont;
      entry = Some body; ready_since = now m; pinned; wake = no_wake; wq_next = no_thread }
  in
  let slot = m.tslot_used in
  if slot >= Array.length m.tslots then begin
    let cap = max 64 (2 * Array.length m.tslots) in
    let grown = Array.make cap no_thread in
    Array.blit m.tslots 0 grown 0 (Array.length m.tslots);
    m.tslots <- grown
  end;
  task.Task.mslot <- slot;
  m.tslots.(slot) <- thread;
  m.tslot_used <- slot + 1;
  m.threads <- thread :: m.threads;
  thread.state <- Ready;
  m.shards.(home).Sched.Policy.enqueue task;
  kick m;
  thread

let rebind m thread container =
  Engine.Metrics.incr m.c_rebinds;
  if tracing m then
    tell m
      (Engine.Trace_event.Rebind
         {
           thread = thread.task.Task.name;
           cid = Container.id container;
           container = Container.name container;
         });
  Binding.set_resource_binding thread.task.Task.binding ~now:(now m) container;
  match thread.state with
  | Ready -> (home_pol m thread).Sched.Policy.requeue thread.task
  | Running (* dequeued while on a processor *) | Blocked | Done -> ()

(* Terminate a thread: discard its continuation, remove it from queues and
   release its bindings.  A thread occupying a processor finishes the slice
   in flight (the work is already committed) and is reaped at slice end. *)
let kill m thread =
  match thread.state with
  | Done -> ()
  | Ready | Blocked | Running ->
      Engine.Metrics.incr m.c_kills;
      if tracing m then
        tell m (Engine.Trace_event.Kill { thread = thread.task.Task.name });
      thread.cont <- no_cont;
      thread.entry <- None;
      thread.pending <- 0;
      thread.state <- Done;
      (home_pol m thread).Sched.Policy.dequeue thread.task;
      Binding.drop thread.task.Task.binding

let reset_scheduler_binding m thread =
  Binding.reset_scheduler_binding thread.task.Task.binding ~now:(now m)

let cpu ?(kernel = false) span =
  let cost = Simtime.span_to_ns span in
  if cost > 0 then Effect.perform (E_cpu { cost; kernel })

let sleep span =
  let span_ns = Simtime.span_to_ns span in
  if span_ns > 0 then Effect.perform (E_sleep span_ns)

let yield () = Effect.perform E_yield
let self () = Effect.perform E_self

module Waitq = struct
  type nonrec t = waitq

  let create ?(name = "waitq") m =
    { wq_name = name; wq_machine = m; wq_head = no_thread; wq_tail = no_thread; wq_len = 0 }

  let wait wq = Effect.perform (E_wait wq)
  let signal wq = if wq.wq_len > 0 then make_runnable wq.wq_machine (wq_pop wq)

  (* Wakes exactly the threads waiting at the call, oldest first. *)
  let broadcast wq =
    for _ = 1 to wq.wq_len do
      make_runnable wq.wq_machine (wq_pop wq)
    done

  let waiters wq = wq.wq_len
end

(* Interrupts are taken on processor 0 by default, as most 1990s kernels
   did; a steered interrupt ([cpu] from the NIC's RSS hash) runs — and
   charges, and steals wall-clock time — on the steered processor. *)
let steal_time ?(cpu = 0) m ~cost ~charge =
  let cost_ns = Simtime.span_to_ns cost in
  if cost_ns > 0 then begin
    if cpu < 0 || cpu >= cpus m then invalid_arg "Machine.steal_time: no such processor";
    let victim =
      match charge with
      | `Container c -> c
      | `Current_or_system -> (
          match m.currents.(cpu) with
          | Some d -> Binding.resource_binding d.d_thread.task.Task.binding
          | None -> m.root)
    in
    charge_to m victim ~kernel:true ~cpu cost_ns;
    Engine.Metrics.incr m.c_irq_steals;
    if tracing m then
      tell m
        (Engine.Trace_event.Irq_steal
           { cpu; cost_ns; cid = Container.id victim; container = Container.name victim });
    match m.currents.(cpu) with
    | Some d ->
        ignore (Sim.cancel m.sim d.d_end_event);
        d.d_end_time <- Simtime.add d.d_end_time cost;
        d.d_end_event <- Sim.at m.sim d.d_end_time d.d_fin
    | None ->
        m.irq_busy_until.(cpu) <-
          Simtime.add (Simtime.max m.irq_busy_until.(cpu) (now m)) cost
  end

let invariants m = m.invariants

let check_invariants m = Engine.Invariant.check m.invariants

let arm_invariants ?(interval = Simtime.ms 10) m =
  Engine.Invariant.arm m.invariants;
  Container.arm_strict_memory (Container.run m.root);
  ignore (Sim.every m.sim interval (fun () -> Engine.Invariant.check_exn m.invariants))

let run_until m horizon =
  Sim.run_until m.sim horizon;
  (* Quiesce check: the horizon is an event boundary, so every law must
     hold exactly here. *)
  if Engine.Invariant.armed m.invariants then Engine.Invariant.check_exn m.invariants

let set_on_idle m f = m.on_idle <- f
