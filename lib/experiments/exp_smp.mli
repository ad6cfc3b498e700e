(** SMP extension experiments (no counterpart in the paper, whose
    measurements are all uniprocessor): what RSS interrupt steering and
    per-processor run-queue shards buy on a multiprocessor. *)

(** {1 Interrupt livelock confined to one processor} *)

type livelock_point = {
  l_cpus : int;
  l_flood_cpu : int;  (** processor the attack flow steers to *)
  l_flood_cpu_busy : float;  (** busy fraction of that processor *)
  l_other_busy_max : float;  (** highest busy fraction among the others *)
  l_good_rps : float;  (** legitimate-client throughput *)
}

val livelock_run :
  ?good_clients:int ->
  ?syn_rate:float ->
  ?warmup:Engine.Simtime.span ->
  ?measure:Engine.Simtime.span ->
  cpus:int ->
  unit ->
  livelock_point
(** Unmodified kernel (softirq mode) under a single-source SYN flood
    (default 40k SYNs/s): every attack packet carries the same flow
    identity, so all its interrupt-level processing lands on one
    processor.  At [cpus = 1] this is the paper's receive livelock; at
    [cpus > 1] the flood saturates only its steered CPU and clients
    hashed elsewhere keep their throughput. *)

val livelock_table :
  ?good_clients:int ->
  ?syn_rate:float ->
  ?warmup:Engine.Simtime.span ->
  ?measure:Engine.Simtime.span ->
  unit ->
  Engine.Series.table
(** One {!livelock_run} row per processor count: 1, 2 and 4. *)

(** {1 Fixed-share guarantees while one core is saturated} *)

type hot_point = {
  h_name : string;
  h_cpu : int;  (** processor the container's thread is pinned to *)
  h_guaranteed : float;  (** share of its processor; 0 = best effort *)
  h_measured : float;  (** achieved share of one processor's time *)
}

type hot_result = { h_points : hot_point list; h_hot_cpu_busy : float }

val hot_run :
  ?cpus:int ->
  ?warmup:Engine.Simtime.span ->
  ?measure:Engine.Simtime.span ->
  unit ->
  hot_result
(** RC kernel with one run-queue shard per processor (default 4).  A
    best-effort container saturates processor 0; fixed-share containers
    (50%, 25%) and a best-effort filler compete on processor 1.  The
    measured shares show the multilevel scheduler honouring the
    guarantees on processor 1 regardless of the saturated core.
    @raise Invalid_argument if [cpus < 2]. *)

val hot_table :
  ?cpus:int ->
  ?warmup:Engine.Simtime.span ->
  ?measure:Engine.Simtime.span ->
  unit ->
  Engine.Series.table
