(** Extension: a multi-point throughput sweep built for the parallel
    executor ({!Harness.Sweep}).

    The grid crosses the three kernel configurations with client counts
    and workload seeds; every point is an independent closed-loop
    simulation whose randomness derives only from its own seed.  The JSON
    report is emitted in grid order with no environment-dependent fields,
    so [~jobs:n] produces byte-identical output for every [n] — the
    determinism test diffs [jobs=1] against [jobs=4] literally. *)

type point = { system : Harness.system; clients : int; seed : int }

type result = {
  point : point;
  throughput : float;  (** completed requests per second over the window *)
  mean_ms : float;
  p99_ms : float;
  completed : int;
}

val grid : ?client_counts:int list -> ?seeds:int list -> unit -> point array
(** Deterministically ordered cross product of all three systems
    (outermost), client counts, then seeds.  Defaults: {4, 16} clients ×
    seeds {1, 2}. *)

val run :
  ?cpus:int ->
  ?warmup:Engine.Simtime.span ->
  ?measure:Engine.Simtime.span ->
  point ->
  result
(** Run one point (default 1 s warmup, 2 s measurement).  [cpus]
    (default 1) runs the point's rig on an SMP machine with one run-queue
    shard per processor. *)

val run_grid :
  ?cpus:int ->
  ?warmup:Engine.Simtime.span ->
  ?measure:Engine.Simtime.span ->
  ?jobs:int ->
  point array ->
  result array
(** Run every point, fanned across [jobs] domains, results in grid
    order. *)

val report_string : result array -> string
(** Compact one-line JSON document plus trailing newline. *)
