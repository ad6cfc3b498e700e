(** A binary min-heap keyed by [(priority, sequence)] with O(log n) insert
    and extract-min, plus O(1) lazy cancellation.

    The heap is the test suite's reference event queue: priorities are
    simulated timestamps and the monotonically increasing sequence number
    makes extraction stable (events scheduled earlier at the same instant
    fire first).  {!Sim_ref} and the timer-wheel properties use it as the
    oracle for [Engine.Timer_wheel] and [Engine.Sim]. *)

type 'a t

type handle
(** A handle onto an inserted element, usable to cancel it later. *)

val create : unit -> 'a t

val length : 'a t -> int
(** Number of live (non-cancelled) elements. *)

val physical_size : 'a t -> int
(** Number of array slots currently holding a node, live or cancelled.
    Cancellation is lazy, but the heap compacts itself whenever dead nodes
    outnumber live ones (beyond a small floor), so this stays within
    [2 * length q + 65].  Exposed for tests and instrumentation. *)

val is_empty : 'a t -> bool

val insert : 'a t -> prio:int -> 'a -> handle
(** [insert q ~prio v] adds [v] with priority [prio] and returns a handle
    for cancellation.  Smaller priorities are extracted first; ties are
    broken by insertion order. *)

val cancel : 'a t -> handle -> bool
(** [cancel q h] removes the element behind [h] if it is still queued.
    Returns [false] if the element was already extracted or cancelled.
    Cancellation is lazy: the slot is skipped on a later extraction. *)

val pop_min : 'a t -> (int * 'a) option
(** Remove and return the live element with the smallest priority, or
    [None] when the heap holds no live elements. *)

val peek_min_prio : 'a t -> int option
(** Priority of the next live element without removing it. *)

val clear : 'a t -> unit
