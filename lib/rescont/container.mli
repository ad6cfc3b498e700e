(** The resource container abstraction (paper §4.1–§4.5).

    A container is the operating system's resource principal: it logically
    holds all resources consumed on behalf of one independent activity.
    Containers form a hierarchy; a child's consumption is constrained by
    its parent's scheduling parameters.

    Prototype restrictions (paper §5.1), which this implementation
    enforces:
    - only fixed-share containers may have children;
    - threads may bind only to leaf containers, so a container that has
      live thread bindings cannot be given children. *)

type t

exception Error of string
(** Raised on violations of the structural rules above, over-subscribed
    fixed shares, cycles, or use of a destroyed container. *)

val create_root : unit -> t
(** The machine-wide root container: fixed share 1.0 of the whole CPU.  A
    simulated kernel creates exactly one.  Creating it starts a {!run}:
    the root and every container created under it share one ledger
    arena, one strict-memory flag, one topology generation and one set
    of id counters, all starting from zero, so a run's results do not
    depend on what else ran in the process. *)

val create : ?name:string -> ?attrs:Attrs.t -> parent:t -> unit -> t
(** Create a child container in [parent]'s run.  Defaults:
    {!Attrs.default}, a generated name.  @raise Error if [parent] is
    destroyed or not fixed-share, if [parent] has thread bindings, or if
    a fixed-share child would over-subscribe the parent (children's
    shares summing past 1). *)

type run
(** One simulated run: everything {!create_root} starts afresh. *)

val create_detached : ?name:string -> ?attrs:Attrs.t -> run -> t
(** A container with "no parent" in the given run (§4.6 allows
    parentless containers, e.g. after the parent is destroyed). *)

val run : t -> run
(** The run the container belongs to. *)

type id_space = Task_ids | Pids | Listen_ids | Conn_ids | Runq_ids

val fresh_id : run -> id_space -> int
(** The next id in one of the run's id spaces: 1, 2, 3, … in the order
    they are drawn.  The other layers draw their entity ids here (tasks,
    processes, listen and connection sockets, run queues), so ids count
    per run, like container ids. *)

val arm_strict_memory : run -> unit
(** From now on, an over-refund of memory in this run raises
    {!Usage.Negative_memory} instead of saturating at zero.  Armed
    invariants turn this on, for their own run only. *)

(** {1 Structure} *)

val id : t -> int
(** Counts from 1 in creation order within the run. *)

val slot : t -> int
(** Dense per-run creation-order index (the container's own
    {!Usage.slot}): small, never reused, suitable for indexing flat
    per-container state arrays. *)

val name : t -> string
val parent : t -> t option
val children : t -> t list
(** In adoption order: oldest first, and a re-parented container joins its
    new parent's list at the end.  The children are kept as an intrusive
    doubly-linked sibling list, so adopting and detaching a child are O(1);
    this function builds a fresh list, O(children) per call, for cold
    callers (invariant laws, reference schedulers, printers).  The order is
    part of simulated results: schedulers sum fixed shares as floats in it. *)

val committed_share : t -> float
(** The fixed shares of the container's children, summed in adoption order
    (timeshare children count 0): what a new fixed-share child is checked
    against.  Cached per parent and exact to the bit: the sum is extended
    as children are adopted, and re-walked only after a fixed-share child
    leaves or a child's attributes change. *)

val adoption_seq : t -> int
(** The container's place in its parent's {!children}: siblings are listed
    in ascending [adoption_seq].  Drawn from a per-parent counter when the
    container is adopted (at creation or re-parent), so a re-parented
    container sorts after every sibling it joins.  Only comparisons among
    current siblings mean anything. *)

val is_leaf : t -> bool
val is_root : t -> bool
val is_destroyed : t -> bool
val depth : t -> int

val set_parent : t -> t option -> unit
(** Re-parent (§4.6 "set a container's parent").  Every check runs before
    anything moves, so a refused re-parent leaves the tree, the usage
    roll-up chain and {!topology_generation} unchanged.  A container moved
    under its current parent does not count against that parent's share
    budget, and joins the end of its children.  @raise Error on cycles,
    destroyed endpoints, a parent in another run, non-fixed-share
    parents, or over-subscription. *)

val iter_subtree : (t -> unit) -> t -> unit
(** Pre-order traversal of the container and its descendants, children in
    adoption order.  [f] must not change the tree. *)

val root_of : t -> t

val has_ancestor : t -> ancestor:t -> bool
(** [has_ancestor c ~ancestor] is [true] when [ancestor] lies on [c]'s
    parent chain, or equals [c]. *)

val ancestry : t -> t array
(** The cached parent chain [[| c; parent; ...; top |]] (self first, the
    chain's topmost container last).  O(1) when cached; rebuilt lazily
    after a re-parent.  Callers must treat the array as read-only — it is
    the cache itself, not a copy.  This is the closure-free fast path that
    charging and scheduling iterate. *)

val topology_generation : t -> int
(** The container's run's counter, bumped whenever a parent link of an
    existing container in the run changes (detach, re-parent, destroy).
    Caches of per-subtree aggregates (e.g. run-queue work counts) key
    their validity on it. *)

(** {1 Attributes and usage} *)

val attrs : t -> Attrs.t

val set_attrs : t -> Attrs.t -> unit
(** @raise Error if the attributes are invalid, if changing the class away
    from fixed-share while children exist, or on over-subscription. *)

val usage : t -> Usage.t

val charge_cpu : t -> kernel:bool -> Engine.Simtime.span -> unit
(** Charge CPU to this container and propagate into every ancestor's
    subtree usage. *)

val charge_rx : t -> packets:int -> bytes:int -> unit
val charge_tx : t -> packets:int -> bytes:int -> unit
val charge_memory : t -> int -> unit
val charge_disk : t -> bytes:int -> Engine.Simtime.span -> unit
(** Like {!charge_cpu}, for the other resource dimensions: the charge
    lands on this container's own {!usage} and rolls up into the
    {!subtree_usage} of itself and every ancestor. *)

val subtree_usage : t -> Usage.t
(** Aggregate consumption of this container plus all its descendants —
    including destroyed ones; consumption history is never lost (§4.5).
    This is what hierarchical limits, §5.8 isolation measurements and
    billing read. *)

val subtree_cpu : t -> Engine.Simtime.span
(** [Usage.cpu_total (subtree_usage t)]. *)

val guaranteed_fraction : t -> float
(** Product of the fixed shares from the root down to this container;
    timeshare containers contribute their parent's guarantee (they hold no
    guarantee of their own). *)

val effective_cpu_limit : t -> float
(** The tightest [cpu_limit] along the path to the root (1.0 if none). *)

(** {1 Lifetime (§4.6)} *)

val retain : t -> unit
(** Add a descriptor reference. *)

val release : t -> unit
(** Drop a descriptor reference.  When no descriptors and no thread
    bindings remain, the container is destroyed: children are detached
    ("no parent") and it is unlinked from its own parent. *)

val incr_bindings : t -> unit
val decr_bindings : t -> unit
(** Thread-binding reference count, maintained by {!Binding}. *)

val binding_count : t -> int
val ref_count : t -> int

val destroy : t -> unit
(** Force destruction regardless of reference counts (used by the
    primitive-cost benchmarks; the kernel path uses {!release}). *)

val on_destroy : t -> (t -> unit) -> unit
(** Register a teardown hook, run exactly once when the container is
    destroyed (after it is marked destroyed and unlinked).  Kernel modules
    use this to drop per-container state — e.g. the network stack prunes a
    destroyed container's deferred-processing queue and service stamp.
    @raise Error if the container is already destroyed. *)

val pp : Format.formatter -> t -> unit

val pp_tree : Format.formatter -> t -> unit
(** Indented dump of the subtree with attributes and CPU consumption —
    what an administrator's inspection tool would show. *)
