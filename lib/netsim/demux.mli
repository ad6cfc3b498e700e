(** Port-indexed early-demultiplex table (paper §4.8).

    Maps an incoming SYN's destination port to its listen sockets,
    pre-sorted by (decreasing filter specificity, increasing listen id) so
    a lookup is a first-match scan of one port's bucket instead of a fold
    over every listen socket on the stack.  Agrees with the test-only
    reference fold [Spec.Demux_ref.lookup] on every (port, source) — a
    QCheck-tested equivalence, including equal-specificity ties and
    overlapping prefixes. *)

type t

val create : unit -> t

val add : t -> Socket.listen -> unit
(** Insert into the socket's port bucket, re-sorting just that bucket. *)

val remove : t -> Socket.listen -> unit
(** Remove by listen id from its port bucket. *)

val lookup : t -> port:int -> src:Ipaddr.t -> Socket.listen option
(** The most specific matching listen socket, ties to the earliest
    bound. *)

val fold : t -> init:'a -> ('a -> Socket.listen -> 'a) -> 'a
(** Visit every installed listen socket: each port's bucket in demux
    order, the ports in an unspecified but deterministic order. *)
