(** Free-list pool of deferred-protocol-work items and the intrusive
    per-container queues they wait on.

    One mutable record per in-flight packet, reused across packets, with
    an explicit lifecycle (free → in service → queued → in service →
    free) checked on every transition: double release and release-while-
    queued raise.  The counters back the [net.pool-consistency] invariant
    law (free + in-service + queued = allocated), armed in the fuzzer.

    The pre-pool representation — fresh [W_syn]/[W_data] variants in a
    [Queue.t] — survives as the QCheck lockstep reference
    (test_netsim). *)

type kind = Syn | Ack | Data | Fin

type item = {
  mutable kind : kind;
  mutable src : Ipaddr.t;
  mutable src_port : int;
  mutable listen : Socket.listen option;
  mutable client : Socket.client_handlers;
  mutable completes : bool;
  mutable conn : Socket.conn;
  mutable payload : Payload.t;
  mutable lifecycle : int;
  mutable next : item;
}
(** Fields are meaningful per {!kind}: [Syn] uses [src]/[src_port]/
    [listen]/[client]/[completes]; [Ack]/[Fin] use [conn]; [Data] uses
    [conn] and [payload].  Unused reference fields hold pool-owned
    dummies.  [lifecycle] and [next] are pool-private. *)

type t
type queue

val create : unit -> t

val acquire : t -> item
(** An item in the in-service state, fields reset to dummies; reuses the
    free list, growing the pool only at a new in-flight peak. *)

val release : t -> item -> unit
(** Return an in-service item to the free list, clearing its reference
    fields.  @raise Invalid_argument on double free or if still queued. *)

val stats : t -> int * int * int * int
(** [(allocated, free, in_service, queued)]; the pool-consistency law is
    [free + in_service + queued = allocated]. *)

val queue_create : t -> queue
val queue_length : queue -> int
val queue_is_empty : queue -> bool

val push : queue -> item -> unit
(** Append an in-service item (FIFO).  @raise Invalid_argument if the
    item is not in service. *)

val pop : queue -> item option
(** Dequeue the head back into the in-service state. *)

val queue_validate : queue -> bool
(** Structural audit: linked length matches the counter and every linked
    item is in the queued state. *)
