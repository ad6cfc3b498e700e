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

type calibration = {
  cal_t0 : float;  (** mean in-sojourn demand, seconds *)
  cal_demand : float;  (** total CPU demand per request, seconds *)
}

val calibrate : ?seed:int -> unit -> calibration
(** A single machine at near-zero load: the mean in-server sojourn is the
    per-request in-sojourn demand [T0], and busy-time over completions is
    the total CPU demand per request (~0.9 ms at the default 400 us
    service) — what utilisation targeting divides by. *)

val oracle_point :
  ?machines:int ->
  ?shards:int ->
  ?domains:int ->
  ?window:Engine.Simtime.span ->
  ?rate:float ->
  ?hold:Engine.Simtime.span ->
  ?warmup:Engine.Simtime.span ->
  ?measure:Engine.Simtime.span ->
  ?seed:int ->
  t0:float ->
  unit ->
  oracle_point
(** One loaded run compared against the closed form.  Predictions are
    per-machine (the hash ring's shares are uneven) and averaged with
    completion weights.  [shards]/[domains]/[window] select sharded
    execution ({!Clustersim.Cluster.create}); the in-server sojourn the
    oracle compares is window-independent, and results are byte-identical
    at every shard count. *)

val oracle_curve :
  ?machines:int ->
  ?shards:int ->
  ?rhos:float list ->
  ?warmup:Engine.Simtime.span ->
  ?measure:Engine.Simtime.span ->
  ?seed:int ->
  unit ->
  oracle_result
(** Calibrate once, then one point per target utilisation. *)

val gate_point :
  ?machines:int ->
  ?shards:int ->
  ?rate:float ->
  ?hold:Engine.Simtime.span ->
  ?seed:int ->
  unit ->
  oracle_point
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

val mega_point :
  ?machines:int ->
  ?shards:int ->
  ?domains:int ->
  ?rate:float ->
  ?hold:Engine.Simtime.span ->
  ?warmup:Engine.Simtime.span ->
  ?measure:Engine.Simtime.span ->
  ?window:Engine.Simtime.span ->
  ?seed:int ->
  unit ->
  mega_point
(** The scale demonstration: 52,000 arrivals/s each holding its connection
    for 20 s sustain ~1.04 million concurrent connections over 64
    machines, executed across 8 shards with a 2 ms dispatch window and
    2^21-entry in-flight rings.  Minutes of wall clock — bench-harness
    territory ([--mega]), not CI. *)

val oracle_table : oracle_result -> Engine.Series.table
val point_json : oracle_point -> Engine.Jsonx.t
val oracle_json : ?gate:oracle_point -> oracle_result -> Engine.Jsonx.t

(** {1 The cloning bound} *)

type clone_pair = {
  c_single_ms : float;  (** mean client sojourn, single dispatch *)
  c_replicated_ms : float;  (** mean client sojourn, 2 clones, first wins *)
  c_single_completed : int;
  c_replicated_completed : int;
  c_ratio : float;  (** replicated / single; the bound requires <= 1 *)
}

val clone_pair :
  ?machines:int ->
  ?rate:float ->
  ?warmup:Engine.Simtime.span ->
  ?measure:Engine.Simtime.span ->
  ?seed:int ->
  unit ->
  clone_pair
(** Single dispatch at rate [lambda] vs two clones per request at
    [lambda/2]: equal per-machine load, so the client-side sojourn
    difference is purely the first-response-wins effect —
    [E[min of 2 iid] <= E[single]]. *)

val clone_table : clone_pair -> Engine.Series.table

(** {1 Differentiated QoS under a flooded machine} *)

type qos_point = {
  q_policy : string;
  q_goodput : float;  (** completions/s *)
  q_sojourn_ms : float;  (** mean client sojourn *)
  q_flooded_share : float;  (** fraction of requests served by machine 0 *)
  q_syn_drops : int;  (** SYN-queue drops on machine 0 *)
}

val qos_run :
  ?machines:int ->
  ?rate:float ->
  ?warmup:Engine.Simtime.span ->
  ?measure:Engine.Simtime.span ->
  ?seed:int ->
  policy:Clustersim.Cluster.policy ->
  unit ->
  qos_point
(** Machine 0 is SYN-flooded at 30 000 SYN/s from inside tenant 0's
    prefix.  Half-open connections are tracked from SYN, so
    least-connections balancing sees the flood as load and routes around
    the machine; round-robin keeps feeding it. *)

val qos_table :
  ?machines:int ->
  ?rate:float ->
  ?warmup:Engine.Simtime.span ->
  ?measure:Engine.Simtime.span ->
  ?seed:int ->
  unit ->
  Engine.Series.table
(** One {!qos_run} row per policy (round-robin, least-conns). *)

(** {1 Tenant rollup} *)

val tenant_table :
  ?machines:int ->
  ?rate:float ->
  ?measure:Engine.Simtime.span ->
  ?seed:int ->
  unit ->
  Engine.Series.table
(** Cluster-wide per-tenant usage via the rollup groups (3:1 arrival
    weights), with the "cluster.usage-rollup" law checked at the end.
    @raise Failure on a law violation. *)
