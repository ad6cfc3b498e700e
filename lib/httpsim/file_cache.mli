(** The server's document store and in-memory file cache.

    The paper's experiments serve a cached 1 KB static file; this module
    also models misses (a disk read costing {!Costs.cache_miss}) so that
    tests and examples can exercise cold-cache behaviour.  Eviction is LRU
    over a byte-capacity budget.

    Internally a struct-of-arrays arena with an intrusive doubly-linked
    LRU list (DESIGN.md §15): lookup, touch, and eviction are O(1) and
    allocation-free, so one machine serves a 10^6-document Zipf working
    set at the same per-request cost as the seed's 4 documents.  Documents
    are identified by {!Docset} ids on the hot path; the [~path] API is
    the compat view over the same state.  {!File_cache_ref} is the
    executable spec this implementation is QCheck-lockstepped against. *)

type t

val create : ?capacity_bytes:int -> unit -> t
(** Default capacity 64 MB (the paper's machine had 128 MB of RAM). *)

val add_document : t -> path:string -> bytes:int -> unit
(** Register a servable document (interning [path] into the global
    {!Docset}).  Documents start uncached; re-registration is ignored. *)

val add_doc : t -> doc:int -> bytes:int -> unit
(** Register by interned doc id (the non-allocating form used by bulk
    docset builders). *)

val document_size : t -> path:string -> int option

type outcome = Hit of int | Miss of int | Not_found_doc

val lookup : t -> path:string -> outcome
(** Look a path up, updating cache state: a [Miss] loads the document
    (evicting LRU entries if needed) so a repeat lookup hits.  The [int]
    is the document size in bytes. *)

val lookup_doc : t -> doc:int -> outcome
(** {!lookup} by interned doc id — the request hot path; O(1), allocation
    free.  Ids the cache never saw (including negative ones) are
    [Not_found_doc]. *)

val lookup_cost : outcome -> Engine.Simtime.span
(** CPU to charge for the lookup: {!Costs.cache_hit}, {!Costs.cache_miss},
    or a hit-priced scan for misses of unknown documents. *)

val warm : t -> unit
(** Load every registered document that fits, in registration order, as
    the paper's warm-cache experiments assume.  Warm loads count as
    (unmetered) lookups for recency purposes: each loaded document is
    stamped and becomes most-recently-used in turn. *)

val is_cached : t -> path:string -> bool
(** Residency probe (no LRU side effects); for tests and lockstep checks. *)

val hits : t -> int
val misses : t -> int
val cached_bytes : t -> int

val registered : t -> int
(** Number of registered documents. *)

val register_metrics : t -> Engine.Metrics.t -> unit
(** Register the cache's hit/miss counters and a [cache.cached_bytes]
    gauge into [registry].  {!hits}/{!misses} remain views over the same
    counters, so the registry and the accessors always agree. *)

val register_invariants : t -> Engine.Invariant.t -> unit
(** Register the [cache.bytes-consistency] law: the intrusive LRU list
    threads exactly the resident slots (a bounded head-to-tail walk plus a
    popcount of the residency bitmap), {!cached_bytes} equals the sum of
    their sizes, is non-negative, and never exceeds the configured
    capacity.  One check costs O(resident) list nodes plus
    O(registered / 63) bitmap words. *)

(** {1 Test-only}

    Fault injection for the law's mutation tests.  The simulator never
    calls it; nothing outside the test suite may. *)

type fault =
  | Cached_bytes_off_by of int  (** The byte counter drifts by [d]. *)
  | Resident_off_by of int  (** The resident counter drifts by [d]. *)
  | Broken_back_link  (** The second node's back-link is [nil]. *)
  | Cycle  (** The tail's forward link returns to the head. *)
  | Head_mismatch  (** The head field names the second node. *)
  | Tail_mismatch  (** The tail field names the head. *)
  | Unlisted_resident
      (** The LRU node leaves the list and the counters follow it, but its
          residency bit stays set. *)
  | Listed_nonresident
      (** The first uncached slot takes the LRU node's place on the list
          and the byte counter follows; no residency bit changes. *)
  | Stray_bit of int  (** The bit of slot [registered + k] is set. *)

val plant_fault_for_testing : t -> fault -> unit
(** TEST-ONLY.  Corrupt the cache's internal state the way a bug would, so
    a test can check that [cache.bytes-consistency] reports it.  Needs at
    least two resident documents ([Listed_nonresident] also needs an
    uncached one). *)
