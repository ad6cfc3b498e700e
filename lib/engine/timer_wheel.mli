(** A hierarchical timer wheel (Varghese & Lauck) keyed by integer
    nanosecond priorities, with O(1) insert and O(1) eager cancellation.

    The wheel is {!Sim}'s event queue, tuned for the simulator's dominant
    insert pattern — [Sim.after] / [Sim.every] timers landing a bounded
    distance past the clock.  It extracts in (priority, insertion)
    order, the order of a binary heap keyed by priority and insertion
    sequence; the tests check that equivalence against such a heap
    under random insert/cancel/pop schedules.

    The wheel maintains a monotone {e lower bound} [lower_bound t]:
    inserting below it is an error.  {!Sim} guarantees this by
    construction (events are never scheduled in the past), which is
    exactly what lets every operation skip a heap's O(log n) sifting.
    Equal priorities extract in insertion order: equal-priority nodes
    always share a bucket, buckets are appended to, and cascades
    preserve list order.  That holds at the lower bound itself too: an
    insert there lands in the bucket of the nodes already queued at
    that priority, behind them. *)

type 'a t

type 'a handle [@@immediate]
(** A handle onto an inserted element, usable to cancel or re-arm it
    later.  Handles are generation-stamped indexes into the wheel's
    node arena, held unboxed: a handle onto a recycled slot is detected
    as stale and refused, never misdirected at the slot's new
    occupant. *)

val create : unit -> 'a t

val length : 'a t -> int
(** Number of queued (inserted and neither cancelled nor popped)
    elements. *)

val is_empty : 'a t -> bool

val lower_bound : 'a t -> int
(** All queued elements have priority [>= lower_bound t], and future
    inserts must respect it.  Advances on extraction and when
    {!extract} commits a horizon; {!Sim} reads it as its clock. *)

val insert : 'a t -> prio:int -> 'a -> 'a handle
(** [insert t ~prio v] queues [v].  [prio] must be [>= lower_bound t].
    Ties extract in insertion order.  The returned handle {e pins} its
    arena slot: the node survives its pops and can be re-queued with
    {!rearm} indefinitely, until {!cancel} recycles it — use
    {!insert_oneshot} for cancellable events that fire once.
    @raise Invalid_argument if [prio < lower_bound t]. *)

val insert_oneshot : 'a t -> prio:int -> 'a -> 'a handle
(** Cancellable fire-once {!insert}: the handle can {!cancel} the
    element but never {!rearm} it, and the arena slot recycles through
    the free list the moment the element pops or the cancel lands.  A
    cancel arriving after the pop safely returns [false] (the handle's
    generation stamp no longer matches), even if the slot has since
    been reused.  Same ordering semantics as {!insert}.
    @raise Invalid_argument if [prio < lower_bound t]. *)

val rearm : 'a t -> 'a handle -> prio:int -> unit
(** [rearm t h ~prio] re-queues the {e popped} pinned node behind [h] at
    a new priority, reusing its storage — the allocation-free re-arm of
    each {!Sim.every} tick.  The node carries its original value.
    @raise Invalid_argument if the handle is stale, the node is still
    queued or [prio < lower_bound t]. *)

val cancel : 'a t -> 'a handle -> bool
(** Remove the element behind the handle and recycle its node, pinned
    or not, so the handle goes stale: later calls through it return
    [false] or raise.  Returns whether the element was queued: [false]
    if it already popped or was cancelled.  Eager O(1) unlink —
    cancelled elements hold no memory and no residual slot.  On a
    pinned node that popped and was not re-armed it returns [false] but
    still ends the node, which is how a periodic series stops from
    inside its own firing. *)

val valid : 'a t -> 'a handle -> bool
(** Whether the handle still owns its node: [false] once a one-shot
    element popped, or the node was cancelled. *)

val extract : 'a t -> horizon:int -> int
(** The one extraction routine.  [extract t ~horizon] unlinks the
    minimum element if its priority is [<= horizon], moves [lower_bound]
    to that priority and returns the node's index, which must go to
    {!take} before any other call on [t].  Otherwise it returns [-1] {e
    and commits} [lower_bound t] to [horizon] when that is an advance
    (the caller promises, as {!Sim.run_until} does with its clock, that
    nothing will ever be inserted below the horizon it asked about).
    Allocates nothing. *)

val take : 'a t -> int -> 'a
(** [take t i] is the value of the node {!extract} just returned, and
    recycles the node unless it is pinned. *)

val pop_min : 'a t -> (int * 'a) option
(** [extract] and [take] of the minimum element, paired with its
    priority; [None], with [lower_bound] unchanged, when empty. *)

val pop_min_until : 'a t -> horizon:int -> (int * 'a) option
(** [extract] and [take] under [horizon], paired with the priority;
    [None] exactly when [extract] returns [-1]. *)

val clear : 'a t -> unit
(** Drop every queued element.  [lower_bound] is preserved. *)
