(** Executable specification for {!Httpsim.File_cache}.

    The pre-arena hashtable implementation, kept as the QCheck-lockstep
    model: random register/lookup/warm sequences must produce identical
    outcomes, counters, residency, and eviction victims on both.  Eviction
    ties on equal [last_used] break by registration index (oldest
    registered first), matching the arena's structural LRU order — the
    historic code broke ties by hashtable iteration order, which this
    module fixes and a determinism test pins. *)

type t

val create : ?capacity_bytes:int -> unit -> t
val add_document : t -> path:string -> bytes:int -> unit
val document_size : t -> path:string -> int option

val lookup : t -> path:string -> Httpsim.File_cache.outcome
(** Same semantics as {!Httpsim.File_cache.lookup}. *)

val warm : t -> unit

val is_cached : t -> path:string -> bool
(** Residency probe for lockstep comparison; does not touch LRU state. *)

val hits : t -> int
val misses : t -> int
val cached_bytes : t -> int
