(** SMP extension experiments (no counterpart in the paper, whose
    measurements are all uniprocessor): what RSS interrupt steering and
    per-processor run-queue shards buy on a multiprocessor. *)

(** {1 Interrupt livelock confined to one processor} *)

val livelock_table :
  ?good_clients:int ->
  ?syn_rate:float ->
  ?warmup:Engine.Simtime.span ->
  ?measure:Engine.Simtime.span ->
  unit ->
  Engine.Series.table
(** One row per processor count: 1, 2 and 4.  Unmodified kernel (softirq
    mode) under a single-source SYN flood (default 40k SYNs/s): every
    attack packet carries the same flow identity, so all its
    interrupt-level processing lands on one processor.  At 1 processor
    this is the paper's receive livelock; with more, the flood saturates
    only its steered CPU and clients hashed elsewhere keep their
    throughput. *)

(** {1 Fixed-share guarantees while one core is saturated} *)

val hot_table :
  ?cpus:int ->
  ?warmup:Engine.Simtime.span ->
  ?measure:Engine.Simtime.span ->
  unit ->
  Engine.Series.table
(** RC kernel with one run-queue shard per processor (default 4).  A
    best-effort container saturates processor 0; fixed-share containers
    (50%, 25%) and a best-effort filler compete on processor 1.  The
    measured shares show the multilevel scheduler honouring the
    guarantees on processor 1 regardless of the saturated core.
    @raise Invalid_argument if [cpus < 2]. *)
