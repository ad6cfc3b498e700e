(** A simulated disk with container-aware request scheduling.

    Paper §4.4: resource containers are a mechanism for charging {e any}
    resource to the right activity; disk bandwidth allocation is one of
    the complementary policies it enables.  This module provides the
    substrate: a single-spindle disk (seek + rotational overhead per
    request, then sequential transfer) whose per-container request
    queues are drained in the network stack's service order
    ({!Rescont.Service_order}): container priority first, then least
    recently served, then creation order.  A destroyed reader's queued
    reads are still served and charged; its entry leaves once they are
    done.

    Requests are asynchronous at the kernel level ({!submit}) with a
    blocking wrapper for machine threads ({!read}).  Service time is
    {e disk} time: it charges the container's disk counters, not CPU. *)

type t

val create : machine:Procsim.Machine.t -> unit -> t
(** An 8 ms average positioning time and a 20 MB/s media rate — a
    late-1990s SCSI disk, matching the paper's hardware era. *)

val submit :
  t -> container:Rescont.Container.t -> bytes:int -> (unit -> unit) -> unit
(** Queue a read of [bytes] on behalf of [container]; the callback fires
    at completion.  @raise Invalid_argument on negative sizes. *)

val read : t -> container:Rescont.Container.t -> bytes:int -> unit
(** Blocking read for machine threads: the calling thread sleeps (without
    consuming CPU) until the transfer completes. *)

val service_time : t -> bytes:int -> Engine.Simtime.span
(** Seek plus transfer time for one request of the given size. *)

val busy_time : t -> Engine.Simtime.span
(** Total disk-busy time so far. *)

val completed : t -> int
