(** Per-container resource accounting (paper §4.1, §4.4).

    The kernel charges every unit of consumption — CPU slices, received and
    transmitted packets and bytes, memory, kernel objects — to exactly one
    container; ancestors accumulate subtree totals so hierarchical limits
    can be checked in O(depth).

    A usage is a slot in its run's struct-of-arrays {!Ledger} arena —
    charges are int stores into flat arrays, and hierarchical
    roll-up is an index walk over the arena's parent-slot array.  The
    record-based reference semantics live in the test-only
    [Spec.Usage_ref], which a QCheck lockstep property holds this module
    to. *)

type t

val create : Ledger.t -> t
(** A zeroed usage in a fresh slot of the arena. *)

val slot : t -> int
(** The usage's arena slot: a small dense int, allocated in creation
    order within the arena — suitable as an array index for auxiliary
    per-container state (the schedulers index their flat state this
    way).  Slots are never reused. *)

(** {1 Charging} *)

val charge_cpu : t -> kernel:bool -> Engine.Simtime.span -> unit
(** Charge CPU time, classified as kernel- or user-mode. *)

val charge_rx : t -> packets:int -> bytes:int -> unit
val charge_tx : t -> packets:int -> bytes:int -> unit
val charge_memory : t -> int -> unit
(** Adjust current memory held by a (possibly negative) byte delta.  A
    delta that would drive the balance negative (a double refund)
    saturates the balance at zero, or raises {!Negative_memory} when the
    usage's arena is strict ({!Ledger.set_strict}: a run whose
    invariants are armed, see {!Container.arm_strict_memory}). *)

exception Negative_memory of { have : int; delta : int }

val incr_kernel_objects : t -> unit
val decr_kernel_objects : t -> unit
(** Sockets, PCBs, buffers owned by the container's activity. *)

val charge_disk : t -> bytes:int -> Engine.Simtime.span -> unit
(** Record one disk request: bytes transferred and disk-busy time. *)

(** {1 Hierarchical chain charging}

    Used by [Container] for subtree roll-up: apply the charge to this
    usage {e and} to every usage reachable by parent links, self first.
    The walk is an index chase over the arena's preallocated parent
    array — no per-level allocation, no record chasing. *)

val set_chain_parent : t -> t option -> unit
(** Link (or with [None] unlink) this usage's chain parent.
    @raise Invalid_argument if the two usages live in different ledger
    arenas. *)

val charge_cpu_chain : t -> kernel:bool -> Engine.Simtime.span -> unit
val charge_rx_chain : t -> packets:int -> bytes:int -> unit
val charge_tx_chain : t -> packets:int -> bytes:int -> unit
val charge_memory_chain : t -> int -> unit
val charge_disk_chain : t -> bytes:int -> Engine.Simtime.span -> unit

(** {1 Reading} *)

(** Allocation-free scalar readout: plain [int] views (nanoseconds /
    bytes) with no [Simtime.span] round-trip and no snapshot record —
    what the metrics-export and billing paths poll every period. *)

val cpu_ns : t -> int
(** Total (user + kernel) CPU nanoseconds. *)

val cpu_user_ns : t -> int
val cpu_kernel_ns : t -> int

val mem_bytes : t -> int
(** Same value as {!memory_bytes}; named alongside the [_ns] scalar
    readers for the export path. *)

val disk_ns : t -> int

val cpu_total : t -> Engine.Simtime.span
val cpu_user : t -> Engine.Simtime.span
val cpu_kernel : t -> Engine.Simtime.span
val rx_packets : t -> int
val rx_bytes : t -> int
val tx_packets : t -> int
val tx_bytes : t -> int
val memory_bytes : t -> int
val kernel_objects : t -> int
val disk_reads : t -> int
val disk_bytes : t -> int
val disk_time : t -> Engine.Simtime.span

type snapshot = {
  cpu_total : Engine.Simtime.span;
  cpu_user : Engine.Simtime.span;
  cpu_kernel : Engine.Simtime.span;
  rx_packets : int;
  rx_bytes : int;
  tx_packets : int;
  tx_bytes : int;
  memory_bytes : int;
  kernel_objects : int;
  disk_reads : int;
  disk_bytes : int;
  disk_time : Engine.Simtime.span;
}

val snapshot : t -> snapshot
(** An immutable copy, as returned to applications by the "obtain container
    resource usage" operation. *)

val reset : t -> unit
val pp : Format.formatter -> t -> unit
