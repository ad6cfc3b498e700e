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

val grid : client_counts:int list -> seeds:int list -> point array
(** Deterministically ordered cross product of all three systems
    (outermost), client counts, then seeds. *)

val scenario : point -> Scenario.t
(** The point's closed loop (1 ms of think-time jitter from the point's
    seed), 1 s of warm-up and one 2 s window. *)

val run : Scenario.t -> result

val report_string : result array -> string
(** Compact one-line JSON document plus trailing newline. *)
