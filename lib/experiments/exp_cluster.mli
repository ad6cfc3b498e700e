(** Cluster scale-out experiments: the multi-machine rig validated
    against the M/G/1-PS closed form, the replicated-dispatch (cloning)
    bound, the balancer-policy QoS scenario under a SYN-flooded machine,
    and the cluster-wide tenant rollup. *)

(** {1 The M/G/1-PS oracle}

    Each machine behind the flow-hash balancer is approximately an
    M/G/1-PS station (Poisson arrivals by Bernoulli thinning, worker
    pool at small quantum ~ processor sharing), so mean response time
    obeys the insensitive closed form [E[T] = T0 / (1 - rho)] with [T0]
    the near-zero-load mean sojourn and [rho] the measured utilisation. *)

type oracle_point = {
  op_machines : int;
  op_rate : float;  (** aggregate arrivals/s *)
  op_rho : float;  (** completion-weighted mean utilisation *)
  op_concurrent : int;  (** peak concurrent connections in the window *)
  op_completed : int;
  op_measured_ms : float;  (** mean in-server request sojourn *)
  op_predicted_ms : float;  (** [T0 / (1 - rho)], completion-weighted per machine *)
  op_err_pct : float;
}

type oracle_result = { o_t0_ms : float; o_points : oracle_point list }

val oracle_curve :
  ?machines:int ->
  ?shards:int ->
  ?rhos:float list ->
  ?warmup:Engine.Simtime.span ->
  ?measure:Engine.Simtime.span ->
  unit ->
  oracle_result
(** Calibrate once on a single machine at near-zero load (the mean
    in-server sojourn is [T0]; busy time over completions is the CPU
    demand per request that utilisation targeting divides by), then one
    point per target utilisation.  Each point's prediction is per machine
    (the hash ring's shares are uneven), averaged with completion weights.
    [shards] selects sharded execution ({!Clustersim.Cluster.create});
    results are byte-identical at every shard count. *)

val gate_point : ?shards:int -> unit -> oracle_point
(** The acceptance-gate configuration: clients hold connections for 10 s
    after their response, so 10.8k arrivals/s sustain >= 10^5 concurrent
    connections across 16 machines while each machine runs at ~0.62
    utilisation.  The caller asserts [op_err_pct <= 5] and
    [op_concurrent >= 100_000]. *)

(** {1 The 10^6-concurrent-connection run} *)

type mega_point = {
  mp_machines : int;
  mp_shards : int;
  mp_domains : int;
  mp_rate : float;  (** aggregate arrivals/s *)
  mp_hold_s : float;
  mp_sim_seconds : float;  (** simulated seconds executed (warmup + measure) *)
  mp_peak_concurrent : int;
  mp_issued : int;  (** in the measurement window *)
  mp_completed : int;
  mp_refused : int;
  mp_evicted : int;
}

val mega_point : unit -> mega_point
(** The scale demonstration: 52,000 arrivals/s each holding its connection
    for 20 s sustain ~1.04 million concurrent connections over 64
    machines, executed across 8 shards with a 2 ms dispatch window and
    2^21-entry in-flight rings.  Minutes of wall clock — bench-harness
    territory ([--mega]), not CI. *)

val oracle_table : oracle_result -> Engine.Series.table
val oracle_json : ?gate:oracle_point -> oracle_result -> Engine.Jsonx.t

(** {1 The cloning bound} *)

type clone_pair = {
  c_single_ms : float;  (** mean client sojourn, single dispatch *)
  c_replicated_ms : float;  (** mean client sojourn, 2 clones, first wins *)
  c_single_completed : int;
  c_replicated_completed : int;
  c_ratio : float;  (** replicated / single; the bound requires <= 1 *)
}

val clone_pair : ?measure:Engine.Simtime.span -> unit -> clone_pair
(** Single dispatch at 2 400 arrivals/s vs two clones per request at half
    that rate, over 4 machines: equal per-machine load, so the client-side sojourn
    difference is purely the first-response-wins effect —
    [E[min of 2 iid] <= E[single]]. *)

val clone_table : clone_pair -> Engine.Series.table

(** {1 Differentiated QoS under a flooded machine} *)

val qos_table : ?measure:Engine.Simtime.span -> unit -> Engine.Series.table
(** One row per balancer policy (round-robin, least-conns), 4 machines
    at 1 800 arrivals/s.  Machine 0 is SYN-flooded at 30 000 SYN/s from
    inside tenant 0's prefix.  Half-open connections are tracked from
    SYN, so least-connections balancing sees the flood as load and routes
    around the machine; round-robin keeps feeding it. *)

(** {1 Tenant rollup} *)

val tenant_table : ?measure:Engine.Simtime.span -> unit -> Engine.Series.table
(** Cluster-wide per-tenant usage over 4 machines at 4 000 arrivals/s via
    the rollup groups (3:1 arrival weights), with the "cluster.usage-rollup" law checked at the end.
    @raise Failure on a law violation. *)
