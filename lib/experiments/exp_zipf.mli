(** Zipf-corpus flash-crowd experiment (ROADMAP item 4, first scenario).

    A 10^5-10^6-document corpus with Zipf(s) popularity served from a
    cache holding ~1/8 of the corpus bytes, misses going to the disk
    model.  A premium tenant (source-prefix listen filter bound to a
    fixed-share 40% container) and a best-effort crowd run steadily; then a
    flash crowd arrives requesting documents uniformly — the LRU worst
    case.  The point records both phases for both classes plus the cache
    hit rate, showing RC holding the premium tenant's throughput and
    hit-rate QoS where the Unmodified server collapses.  Every point runs
    with the machine's invariant registry armed (including the cache's
    [cache.bytes-consistency] law over the arena). *)

type class_stats = { throughput : float; mean_ms : float }
type phase_stats = { premium : class_stats; crowd : class_stats; hit_rate : float }

type point = {
  system : Harness.system;
  docs : int;
  s : float;
  cache_frac : float;
  baseline : phase_stats;
  spike : phase_stats;
  checks : int;
}

val scenario : docs:int -> s:float -> Harness.system -> Scenario.t
(** One system at one exponent over [docs] documents: 1 s cold-start
    warmup, then a 2 s steady window and a 2 s window with the flash
    crowd, invariants swept every 50 ms. *)

val run : Scenario.t -> point

val default_exponents : float list
(** [0.6; 0.9; 1.1] — below, near, and above the classic web value. *)

val systems : Harness.system list
(** RC, then Unmodified: the full grid runs each at every exponent. *)

val table : point list -> Engine.Series.table

val json : docs:int -> point list -> Engine.Jsonx.t
(** The QoS table as a JSON artifact (per system × exponent × phase). *)
