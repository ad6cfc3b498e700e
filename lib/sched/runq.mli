(** Per-container run queues shared by the scheduling policies.

    Runnable tasks queue FIFO under their current resource-binding
    container; policies choose a container, then this module supplies
    round-robin order within it.  A task whose binding changes while
    runnable is moved with {!requeue}. *)

type t

val create : unit -> t

val enqueue : t -> Task.t -> unit
(** Add under the task's current container; no-op if already queued.
    A task sits in at most one run queue.
    @raise Invalid_argument if another run queue holds the task. *)

val dequeue : t -> Task.t -> unit
(** Remove from this queue; no-op if the task is not queued here. *)

val requeue : t -> Task.t -> unit
(** [dequeue] then [enqueue] under the (possibly new) binding. *)

val mem : t -> Task.t -> bool
val count : t -> int

val front : t -> Rescont.Container.t -> Task.t
(** Head of the container's queue; {!Task.none} when it is empty. *)

val rotate : t -> Rescont.Container.t -> unit
(** Move the container's head task to the tail (round-robin step). *)

val container_has_work : t -> Rescont.Container.t -> bool

val subtree_has_work : t -> Rescont.Container.t -> bool
(** Does the container or any descendant have a queued task?  O(1) apart
    from {!sync}: live per-subtree task counts are maintained
    incrementally on enqueue/dequeue and re-synced only when the container
    tree is re-shaped. *)

(** {1 Busy children}

    Each container the queue has met owns a node that lists its children
    whose subtree holds queued tasks.  The lists change only when a
    subtree count moves between 0 and 1 (including the moves {!sync}
    makes after a re-parent), so reading one costs nothing per idle
    child. *)

type node

val node : t -> Rescont.Container.t -> node
(** The container's node, created empty on first use.  O(1): nodes are
    found through an array indexed by {!Rescont.Container.slot}.
    @raise Invalid_argument if another container already holds that slot
    here (containers from two runs in one run queue). *)

val node_container : node -> Rescont.Container.t

val busy_children : node -> node array
(** The children of the node's container with a queued task anywhere in
    their subtree, in {!Rescont.Container.children} order (ascending
    {!Rescont.Container.adoption_seq}), in the first {!busy_child_count}
    entries.  Valid after {!sync}, until the next enqueue or dequeue.
    The array is the set itself: callers must not write it. *)

val busy_child_count : node -> int

val sync : t -> unit
(** Revalidate the subtree counters against the current container
    topology.  O(1) while the topology generation is unchanged; after a
    re-parent or destroy, O(busy queues × depth): each queue holding live
    tasks whose ancestry changed moves its count to its new ancestor
    chain, and empty queues cost nothing, however many containers were
    ever queued.  Policies call this once per pick before reading
    {!busy_children}. *)

val containers_with_work : t -> Rescont.Container.t list
(** Distinct containers with non-empty queues.  The order is deterministic
    but unsorted: it is the reverse of the order in which a stdlib
    [Hashtbl] keyed by container id would iterate the containers ever
    queued here, so it follows from which containers were queued and in
    what order; container ids count per run, so nothing outside the run
    moves it.  The lottery policy walks its tickets and the stride
    policy breaks pass ties in this order, so it is part of the simulated
    result. *)

val iter_busy : t -> (Rescont.Container.t -> unit) -> unit
(** [iter_busy t f] applies [f] to every container with live queued work,
    in that [Hashtbl] iteration order (the reverse of
    {!containers_with_work}'s list), without allocating.  The
    per-dispatch pick path of the timeshare policy runs on this and
    breaks badness ties on the visit order. *)

val validate : t -> (unit, string) result
(** Conservation check: re-derives per-container live counts, the set of
    busy queues, subtree occupancy and every node's busy children
    (membership and order) from the ring contents and the container tree,
    and compares them with the incrementally maintained state.  [Ok ()]
    iff they all agree.  Used as the [sched.runq-counts] invariant law. *)

(** {1 Test-only fault injection} *)

type fault =
  | Drop_busy_child  (** The last busy child leaves the set; its count stays. *)
  | Swap_busy_children  (** The first two busy children trade places. *)
  | Stray_idle_child  (** The first child with no queued work joins the set. *)

val plant_fault_for_testing : t -> Rescont.Container.t -> fault -> unit
(** TEST-ONLY.  Corrupt the container's busy-children set the way a bug
    would, so a test can check that {!validate} reports it.  Needs the
    container's node, and the busy or idle children the fault names. *)
