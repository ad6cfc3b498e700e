(** The order in which a kernel subsystem serves per-container work
    queues (paper §4.3, §4.4): the network stack's deferred-processing
    queues and the disk's request queues.

    The rule, stated once: among the containers whose queue holds work,
    the highest priority is served first (the caller supplies the
    priority); among equal priorities, the container served least
    recently, with never-served containers first; among those, the
    lowest {!Container.id}, that is, creation order within the run.  The
    order is total, so no table's iteration order reaches a result.

    Each entry holds the caller's FIFO; the caller pushes and pops it,
    and reports each push and pop here so the entry joins and leaves the
    set of busy entries, the only ones a pick scans.  Entries are found
    by container id.  Push, pick and pop allocate nothing but the picked
    result. *)

type 'q t
type 'q entry

val create : unit -> 'q t

val find : 'q t -> Container.t -> 'q entry
(** The container's entry.  @raise Not_found if it has none. *)

val add : 'q t -> Container.t -> 'q -> 'q entry
(** A new idle, never-served entry for the container, holding the given
    (empty) FIFO. *)

val remove : 'q t -> 'q entry -> unit
(** The entry leaves: it is never picked again, and a later {!add} for
    its container starts afresh.  No-op if it already left. *)

val container : 'q entry -> Container.t
val fifo : 'q entry -> 'q

val pushed : 'q t -> 'q entry -> unit
(** The caller pushed work onto the entry's FIFO: the entry is busy. *)

val popped : 'q t -> 'q entry -> empty:bool -> unit
(** The caller served the head of the entry's FIFO: the entry becomes
    the most recently served, and leaves the busy set if the FIFO is now
    [empty]. *)

val best : 'q t -> (Container.t -> int) -> 'q entry option
(** The busy entry served next under the rule above, where
    [priority c] ranks container [c] (higher first) and a rank of
    [min_int] excludes it.  O(busy entries). *)

val length : 'q t -> int
(** Entries, busy or idle. *)

val fold : 'q t -> init:'a -> ('a -> 'q entry -> 'a) -> 'a
(** Every entry, in an unspecified order: for sums and audits, never for
    an order. *)
