(** Seeded scenario fuzzer for the conservation-law invariants.

    Each run generates a randomised-but-reproducible server scenario
    ({!generate}) — a random container hierarchy with filtered listen
    sockets, one of the three server architectures (event-driven, thread
    pool, pre-forked), one of the three container policies, closed-loop
    client groups and an optional SYN flood — and runs it with every
    registered conservation law armed ({!Experiments.Scenario.run}) for a
    random duration, reporting the first violation.

    A scenario is a pure function of [(seed, mode)]: a failing seed
    replays bit-for-bit with the printed command on any machine, and the
    run's kernel trace is dumped as JSON lines next to it.

    With [machines > 1] the generated scenario is a cluster instead
    ({!generate_cluster}, run by {!Experiments.Scenario.run_cluster}): N
    machines behind the load balancer (random policy, tenants, arrival
    profile, optional SYN flood on a random machine), with every
    machine's registry — including the cluster-wide
    "cluster.usage-rollup" law — armed. *)

val mode_name : Netsim.Stack.mode -> string
val mode_of_string : string -> Netsim.Stack.mode option

val all_modes : Netsim.Stack.mode list
(** [Softirq; Lrp; Rc]. *)

type outcome = {
  seed : int;
  mode : Netsim.Stack.mode;
  cpus : int;  (** processors per machine (1 = uniprocessor) *)
  machines : int;  (** 1 = single rig; > 1 = cluster behind the balancer *)
  scenario : string;  (** one-line description of the generated scenario *)
  zipf : bool;  (** the large-Zipf corpus family was forced *)
  checks : int;  (** invariant sweeps that ran *)
  completed : int;  (** client requests completed *)
  packets : int;  (** packets the stack processed *)
  established : int;
  injected : bool;  (** the deliberate mis-charge was planted *)
  violation : string option;  (** [None] = every law held *)
  trace_file : string option;  (** JSONL trace written on violation *)
}

val generate :
  zipf:bool -> inject:bool -> seed:int -> Netsim.Stack.mode -> Experiments.Scenario.t
(** The single-rig scenario of [(seed, mode)], every choice drawn up
    front, on one processor: the run that {!run_seed} performs at one CPU.
    [zipf] selects the large-Zipf corpus family; [inject] plants the
    mis-charge.  The result is plain data: generating twice gives equal
    records. *)

val generate_cluster :
  inject:bool -> machines:int -> seed:int -> Netsim.Stack.mode -> Experiments.Scenario.cluster
(** The cluster scenario of [(seed, mode)] over [machines] machines, every
    choice drawn up front, one processor per machine: the run that
    {!run_seed} performs at one CPU.  The node a planted mis-charge hits
    is the last draw, made with or without [inject], so [inject] changes
    only the [mischarge] field.  Plain data, like {!generate}'s. *)

val replay_command :
  ?inject:bool ->
  ?cpus:int ->
  ?machines:int ->
  ?zipf:bool ->
  mode:Netsim.Stack.mode ->
  seed:int ->
  unit ->
  string
(** The one-command replay line printed with a violation.  It names no
    shard count: an outcome is the same at every one. *)

val run_seed :
  ?inject:bool ->
  ?cpus:int ->
  ?machines:int ->
  ?shards:int ->
  ?zipf:bool ->
  ?trace_path:string ->
  mode:Netsim.Stack.mode ->
  seed:int ->
  unit ->
  outcome
(** Run one scenario.  [inject] plants a deliberate accounting bug
    (interrupt time charged to a container outside the root's subtree)
    halfway through the run, which the [cpu.conservation] law must catch —
    the self-test that the checker checks.  [cpus] (default 1) runs the
    same scenario on an SMP machine with one run-queue shard per
    processor and RSS packet steering; the scenario generation is a pure
    function of [(seed, mode)] alone, so a given seed exercises the same
    workload at every CPU count.  [trace_path] overrides where the JSONL
    trace is written on violation (default
    [fuzz-<mode>-seed<seed>.trace.jsonl] in the working directory).
    [machines > 1] selects the cluster scenario family (no trace file is
    written — cluster machines run untraced).  [shards] (default 1,
    cluster family only) executes the cluster across that many event
    cores — deliberately absent from {!outcome}, because sharded
    execution is byte-identical by contract: the same seed at any shard
    count must produce the same outcome, and comparing them is exactly
    the determinism check the driver's CI stage performs.  [zipf]
    (default false, single-rig only) forces the large-Zipf corpus family:
    thousands of heterogeneous documents against a cache a fraction of
    the corpus size, clients on a Zipf doc mix, so the arena cache's
    eviction path churns under the armed [cache.bytes-consistency] and
    LRU-structure laws.  Every scenario builds its own runs
    ({!Rescont.Container.create_root}), so its outcome does not depend
    on what ran before it in the process. *)

val pp_outcome : Format.formatter -> outcome -> unit

val run_batch :
  ?inject:bool ->
  ?cpus:int ->
  ?machines:int ->
  ?shards:int ->
  ?zipf:bool ->
  ?log:(outcome -> unit) ->
  modes:Netsim.Stack.mode list ->
  seeds:int list ->
  unit ->
  outcome list
(** Run every (seed, mode) pair at the given CPU count (default 1),
    calling [log] after each. *)
