(** Cluster scale-out: N server machines behind one L4 load balancer,
    executed as ONE sharded deterministic simulation.

    Every machine is a full single-server rig — its own {!Procsim.Machine}
    (optionally SMP), container hierarchy, invariant registry and
    {!Netsim.Stack}.  Machine [i] runs in event core [i mod shards]; the
    balancer (the open-loop client population) runs in shard 0.  Shards
    advance in lockstep time windows under {!Engine.Shard}'s conservative
    barrier protocol: the window length equals the balancer→machine
    dispatch latency (a SYN's wire time by default), every cross-shard
    message travels through a per-node mailbox drained at the barrier in a
    canonical order, and therefore the run is a pure function of the seed
    — [shards = N] is byte-identical to [shards = 1], whatever the domain
    count, because the windowed mailbox protocol is the only execution
    path.

    An open-loop arrival process (Poisson or a step/spike profile) plays
    the client population: each logical request opens a connection to a
    machine chosen by the balancer policy, sends one request on
    establishment, holds the connection for [hold] after the response, and
    closes.  Holding is how the cluster reaches 10^5-10^6 concurrent
    connections at moderate arrival rates: the steady-state population is
    roughly [rate × hold].

    Tenants are resource principals that span machines: one container per
    machine (accepted connections bind to it via filter-matched listens,
    §4.6+§4.8) and a {!Rescont.Rollup} group aggregating the per-machine
    ledgers into cluster totals, certified by the "cluster.usage-rollup"
    law in the cluster-level registry — checked at rollup barriers and at
    every {!run_for} horizon.  Each machine's containers live in their own
    ledger arena, so concurrent shards never share accounting arrays. *)

type policy =
  | Round_robin
  | Least_conns
      (** fewest tracked connections; ties to the lowest index.  The
          counts are the previous barrier's snapshot (stale by at most one
          window) — live counts would depend on the shard count. *)
  | Flow_hash
      (** consistent hashing on {!Netsim.Stack.flow_hash} — per-arrival
          Bernoulli thinning of the Poisson stream, so each machine sees a
          Poisson process (the property the PS oracle needs) *)
  | Replicate of int
      (** the cloning model: [d] clones per logical request on distinct
          consecutive machines; first response wins, later ones count as
          {!dup_responses} *)

type profile =
  | Poisson of float  (** arrivals per second *)
  | Spike of { base : float; peak : float; at : Engine.Simtime.span; until : Engine.Simtime.span }
      (** [base] arrivals/s, stepping to [peak] between [at] and [until]
          (offsets from {!start}) *)

type tenant_spec

val tenant_spec : ?weight:int -> ?attrs:Rescont.Attrs.t -> string -> tenant_spec
(** A tenant: [weight] (default 1) is its share of the arrival stream;
    [attrs] (default timeshare) the attributes of its per-machine
    containers. *)

type t

val create :
  ?machines:int ->
  ?shards:int ->
  ?domains:int ->
  ?cpus:int ->
  ?mode:Netsim.Stack.mode ->
  ?policy:policy ->
  ?profile:profile ->
  ?service:Engine.Dist.t ->
  ?request_bytes:int ->
  ?response_bytes:int ->
  ?hold:Engine.Simtime.span ->
  ?workers:int ->
  ?quantum:Engine.Simtime.span ->
  ?rollup_period:Engine.Simtime.span ->
  ?ring_bits:int ->
  ?syn_backlog:int ->
  ?latency:Engine.Simtime.span ->
  ?window:Engine.Simtime.span ->
  ?tenants:tenant_spec list ->
  ?seed:int ->
  unit ->
  t
(** Defaults: 4 machines × 1 CPU, 1 shard, [Rc] mode, round-robin,
    Poisson 1000/s, exponential 400 µs service (sampled in nanoseconds of
    CPU burn), 256 B requests, 4 KB responses, zero hold, 32 workers per
    machine, 50 µs quantum (workers approximate processor sharing), 10 ms
    rollup period, 2^20-entry in-flight rings, one unit-weight tenant.

    [shards] partitions the machines over that many event cores
    (clamped to [machines]); [domains] caps how many OS domains run them
    (default: min of shards and the host's recommended domain count — see
    {!Engine.Shard.create}).  [latency] is each stack's one-way wire
    latency (default 150 µs); [window] overrides the dispatch window
    (default: a SYN's wire time, {!Netsim.Stack.syn_delivery_delay} — the
    largest conservative lookahead).  A larger window amortises barriers
    at the price of added dispatch latency.

    The server on each machine is a worker pool over an edge-triggered
    ready queue ({!Netsim.Stack.set_on_readable}): O(1) per wakeup however
    many connections are open.
    @raise Invalid_argument if [window] is not positive. *)

val start : t -> unit
(** Spawn the worker pools and begin the arrival process.  Call once;
    drive the cluster with {!run_for}. *)

val run_for : t -> Engine.Simtime.span -> unit
(** Advance the whole cluster by [span]: windowed barrier execution across
    the shards (parallel when [domains > 1]), then a horizon quiesce that
    checks every machine's invariant registry and the cluster-level laws.
    May be called repeatedly; windows never straddle a call boundary. *)

val stop_arrivals : t -> unit
(** Stop injecting new connections (existing ones drain normally). *)

val arm_invariants : ?interval:Engine.Simtime.span -> t -> unit
(** Arm every machine's registry for periodic sweeps and strict memory
    accounting (whichever domain runs a shard's window sets the strict
    flag first), plus the cluster-level law checks at rollup barriers. *)

val check_invariants : t -> Engine.Invariant.violation list
(** Run every machine's laws and the cluster-level laws once, collecting
    violations. *)

val rollup_law : t -> (unit, string) result
(** Check just the cluster usage-rollup conservation law. *)

(** {1 Introspection} *)

val sim : t -> Engine.Sim.t
(** Shard 0's event core (the balancer's).  At [shards = 1] this is the
    only one; cross-machine schedules (fuzz fault injection) must target
    [Machine.sim] of the victim machine instead. *)

val now : t -> Engine.Simtime.t
val machines : t -> int

val shards : t -> int
val domains : t -> int
(** Actual counts after clamping (see {!create}). *)

val node_machine : t -> int -> Procsim.Machine.t
val node_stack : t -> int -> Netsim.Stack.t
val node_root : t -> int -> Rescont.Container.t
val node_served : t -> int -> int

val concurrent : t -> int
(** Live (non-closed) connections across all machines, right now. *)

val peak_concurrent : t -> int
(** Largest {!concurrent} seen at a rollup tick since the last
    {!reset_stats}. *)

val busy_total : t -> Engine.Simtime.span
(** Sum of every machine's consumed CPU time. *)

val tenant_count : t -> int
val tenant_name : t -> int -> string
val tenant_group : t -> int -> Rescont.Rollup.group
val tenant_container : t -> tenant:int -> node:int -> Rescont.Container.t
val tenant_prefix : t -> int -> Netsim.Ipaddr.t
val rollup : t -> Rescont.Rollup.t

(** {1 Request accounting} *)

val issued : t -> int
(** Logical requests injected. *)

val completed : t -> int
(** Logical requests answered (clone responses deduplicated). *)

val refused : t -> int
(** Connection attempts refused (per clone, not per logical request). *)

val dup_responses : t -> int
(** Clone responses that arrived after their request was already won. *)

val evicted : t -> int
(** In-flight ring entries overwritten before completing (ring too small
    for the concurrency — raise [ring_bits]). *)

val client_sojourn : t -> Engine.Stats.Summary.t
(** Connect → first response, in seconds, per logical request. *)

val server_sojourn : t -> Engine.Stats.Summary.t
(** Request arrival at the NIC → response handed to the wire, in seconds,
    per served request (clones included) — the PS-oracle observable: the
    arrival instant is recovered from the request's send stamp plus its
    wire time, so network round trips are excluded while the whole
    in-server path (kernel rx processing, worker queueing, parse, service,
    write) is covered.  Accumulated per node and merged in node order, so
    the value is shard-count independent. *)

val reset_stats : t -> unit
(** Zero the request counters and distributions (measurement-window
    bracketing); machine busy-time counters are monotonic — snapshot them
    with {!busy_total} / {!node_machine} instead. *)
