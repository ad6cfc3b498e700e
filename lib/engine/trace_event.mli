(** Typed simulation trace events.

    One variant covers the whole engine: scheduling (dispatch / preempt /
    rebind), resource charging, network queueing and drops, and the HTTP
    request lifecycle.  Subsystems construct these instead of formatting
    strings, so exporters and tests can consume the stream structurally.

    Containers are identified by [(id, name)] pairs — the engine layer
    cannot depend on [Rescont], so events carry the identification, not the
    container itself. *)

type resource = Cpu | Rx | Tx | Memory | Disk

type drop_reason =
  | Overflow  (** queue at capacity; oldest evicted or newest refused *)
  | Timeout  (** half-open connection expired (SYN timeout) *)

type t =
  | Dispatch of { cpu : int; thread : string; cid : int; container : string; work_ns : int }
      (** A thread starts a time slice on processor [cpu]. *)
  | Preempt of { cpu : int; thread : string; remaining_ns : int }
      (** Slice expired with CPU work still pending; the thread re-queues. *)
  | Spawn of { thread : string; cid : int; container : string }
  | Rebind of { thread : string; cid : int; container : string }
  | Kill of { thread : string }
  | Irq_steal of { cpu : int; cost_ns : int; cid : int; container : string }
      (** Interrupt-level work stole wall-clock time on [cpu], charged as
          noted. *)
  | Migrate of { thread : string; from_cpu : int; to_cpu : int }
      (** A runnable thread moved between per-CPU run-queue shards (idle
          steal or periodic rebalance). *)
  | Charge of { resource : resource; cid : int; container : string; amount : int }
      (** Resource consumption charged to a container: [amount] is ns for
          [Cpu]/[Disk], bytes for the rest (negative = refund). *)
  | Net_syn of { src : string; listen : int }
  | Net_established of { conn : int; src : string }
  | Net_enqueue of { cid : int; container : string; depth : int }
      (** Packet queued for deferred protocol processing; [depth] is the
          queue depth after the insertion. *)
  | Net_dequeue of { cid : int; container : string; depth : int }
      (** Deferred work taken for processing; [depth] after removal. *)
  | Early_discard of { cid : int; container : string; depth : int }
      (** Per-container queue full: packet dropped at interrupt level. *)
  | Rx_discard of { cid : int; container : string; bytes : int }
      (** Socket-buffer memory limit exceeded: received data dropped. *)
  | Syn_drop of { listen : int; src : string; reason : drop_reason }
  | Accept_drop of { listen : int; conn : int }
  | Conn_close of { conn : int; refunded_bytes : int }
      (** Connection closed; unread buffered rx bytes credited back. *)
  | Http_request of { conn : int; path : string; dynamic : bool }
  | Http_response of { conn : int; path : string; bytes : int }

val category : t -> string
(** Stable coarse grouping used by [Tracelog.find]: "dispatch", "preempt",
    "spawn", "rebind", "kill", "irq", "migrate", "charge", "net", "netq",
    "drop" or "http". *)

val render : t -> string
(** One-line human-readable form (the legacy message text). *)

val to_json : t -> Jsonx.t
(** Structured form: an object with a ["type"] discriminator plus the
    event's fields.  Does not include the timestamp — the trace log adds
    it per entry. *)

val resource_name : resource -> string
val drop_reason_name : drop_reason -> string
