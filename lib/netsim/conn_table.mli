(** The open connections a {!Stack} has created, as a swap-remove set.

    The connections sit densely in one array, and each carries its index
    there ([Socket.track_slot]), so add, remove and membership are O(1)
    and allocation-free once the array has grown to the peak population.
    The stack removes a connection the moment it transitions to
    [Closed], so the table holds exactly the non-closed connections.

    The list representation survives as the QCheck executable reference
    (test_pooling's conn-table equivalence property). *)

type t

val create : unit -> t
(** An empty table of 64 slots; it doubles as needed. *)

val length : t -> int
(** Number of tracked connections. *)

val add : t -> Socket.conn -> unit
(** Track a connection, stamping [track_slot].
    @raise Invalid_argument if it is already tracked (by any table). *)

val remove : t -> Socket.conn -> bool
(** Untrack in O(1): the last connection moves into the vacated slot.
    [false] if the connection was not tracked here. *)

val mem : t -> Socket.conn -> bool

val fold : t -> init:'a -> ('a -> Socket.conn -> 'a) -> 'a
(** Visit every tracked connection, in slot order (which a removal
    reorders). *)
