(** Per-container run queues shared by the scheduling policies.

    Runnable tasks queue FIFO under their current resource-binding
    container; policies choose a container, then this module supplies
    round-robin order within it.  A task whose binding changes while
    runnable is moved with {!requeue}. *)

type t

val create : unit -> t

val enqueue : t -> Task.t -> unit
(** Add under the task's current container; no-op if already queued. *)

val dequeue : t -> Task.t -> unit
(** Remove wherever it is queued; no-op if absent. *)

val requeue : t -> Task.t -> unit
(** [dequeue] then [enqueue] under the (possibly new) binding. *)

val mem : t -> Task.t -> bool
val count : t -> int

val front : t -> Rescont.Container.t -> Task.t option
(** Head of the container's queue. *)

val rotate : t -> Rescont.Container.t -> unit
(** Move the container's head task to the tail (round-robin step). *)

val container_has_work : t -> Rescont.Container.t -> bool

val subtree_has_work : t -> Rescont.Container.t -> bool
(** Does the container or any descendant have a queued task?  O(1) apart
    from {!sync}: live per-subtree task counts are maintained
    incrementally on enqueue/dequeue and re-synced only when the container
    tree is re-shaped. *)

val subtree_count_ref : t -> Rescont.Container.t -> int ref
(** The live-task counter backing {!subtree_has_work} for one container.
    The ref's identity is stable across topology rebuilds, so policies may
    cache it in per-node indexes and read it on the pick fast path.
    Callers must never write through it. *)

val sync : t -> unit
(** Revalidate the subtree counters against the current container
    topology.  O(1) while the topology generation is unchanged; after a
    re-parent or destroy, O(busy queues × depth): each queue holding live
    tasks whose ancestry changed moves its count to its new ancestor
    chain, and empty queues cost nothing, however many containers were
    ever queued.  Policies call this once per pick before trusting cached
    {!subtree_count_ref} values. *)

val containers_with_work : t -> Rescont.Container.t list
(** Distinct containers with non-empty queues.  The order is deterministic
    but unsorted: it is the iteration order of an internal table keyed by
    container id, so it follows from which containers were ever queued
    here and in what order.  The lottery policy walks its tickets and the
    stride policy breaks pass ties in this order, so it is part of the
    simulated result. *)

val iter_busy : t -> (Rescont.Container.t -> unit) -> unit
(** [iter_busy t f] applies [f] to every container with live queued work,
    visiting in the same deterministic order {!containers_with_work}
    builds its list from — but without allocating it.  The per-dispatch
    pick path of the timeshare policy runs on this and breaks badness ties
    on the visit order. *)

val validate : t -> (unit, string) result
(** Conservation check: re-derives per-container live counts, the set of
    busy queues and subtree occupancy from the ring contents and compares
    them with the incrementally maintained state.  [Ok ()] iff they all
    agree.  Used as the [sched.runq-counts] invariant law. *)
