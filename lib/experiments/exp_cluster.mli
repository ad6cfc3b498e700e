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
  shards:int ->
  machines:int ->
  rhos:float list ->
  warmup:Engine.Simtime.span ->
  measure:Engine.Simtime.span ->
  oracle_result
(** Calibrate once on a single machine at near-zero load (the mean
    in-server sojourn is [T0]; busy time over completions is the CPU
    demand per request that utilisation targeting divides by), then one
    point per target utilisation, each a [warmup] and one [measure]
    window.  Each point's prediction is per machine (the hash ring's
    shares are uneven), averaged with completion weights.  The points run
    over [shards] event cores ({!Scenario.run_cluster}); results are
    byte-identical at every shard count. *)

val gate_point : shards:int -> oracle_point
(** The acceptance-gate configuration: clients hold connections for 10 s
    after their response, so 10.8k arrivals/s sustain >= 10^5 concurrent
    connections across 16 machines while each machine runs at ~0.62
    utilisation.  The caller asserts [op_err_pct <= 5] and
    [op_concurrent >= 100_000]. *)

(** {1 The 10^6-concurrent-connection run} *)

val mega : Scenario.cluster
(** The scale demonstration: 52,000 arrivals/s each holding its connection
    for 20 s sustain ~1.04 million concurrent connections over 64
    machines, with a 2 ms dispatch window and 2^21-entry in-flight rings:
    a 21 s warm-up and one 6 s window.  Minutes of wall clock even
    sharded — bench-harness territory ([--mega], 8 shards), not CI. *)

val oracle_table : oracle_result -> Engine.Series.table
val oracle_json : ?gate:oracle_point -> oracle_result -> Engine.Jsonx.t

(** {1 The cloning bound} *)

val clone_table : measure:Engine.Simtime.span -> Engine.Series.table
(** Single dispatch at 2 400 arrivals/s vs two clones per request at half
    that rate, over 4 machines: equal per-machine load, so the client-side
    sojourn difference is purely the first-response-wins effect —
    [E[min of 2 iid] <= E[single]]; the second row's ratio must be <= 1. *)

(** {1 Differentiated QoS under a flooded machine} *)

val qos_table : measure:Engine.Simtime.span -> Engine.Series.table
(** One row per balancer policy (round-robin, least-conns), 4 machines
    at 1 800 arrivals/s.  Machine 0 is SYN-flooded at 30 000 SYN/s from
    inside tenant 0's prefix.  Half-open connections are tracked from
    SYN, so least-connections balancing sees the flood as load and routes
    around the machine; round-robin keeps feeding it. *)

(** {1 Tenant rollup} *)

val tenant_table : measure:Engine.Simtime.span -> Engine.Series.table
(** Cluster-wide per-tenant usage over 4 machines at 4 000 arrivals/s via
    the rollup groups (3:1 arrival weights), with the "cluster.usage-rollup" law checked at the end.
    @raise Failure on a law violation. *)
