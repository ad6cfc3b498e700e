(** Record-based executable specification of {!Rescont.Usage}.

    The boxed-record accumulator that predates the struct-of-arrays
    arena of {!Rescont.Usage}, kept as the reference semantics (the
    {!Multilevel_ref} pattern): a QCheck lockstep property drives this
    module and {!Rescont.Usage} with identical random charge sequences and
    requires field-for-field agreement, including the
    saturate-vs-raise negative-memory rule.  Not used on any hot path. *)

type t

exception Negative_memory of { have : int; delta : int }

val create : unit -> t
val charge_cpu : t -> kernel:bool -> Engine.Simtime.span -> unit
val charge_rx : t -> packets:int -> bytes:int -> unit
val charge_tx : t -> packets:int -> bytes:int -> unit

val charge_memory : t -> strict:bool -> int -> unit
(** @raise Negative_memory when [strict] and the delta would drive the
    balance negative; saturates at zero otherwise. *)

val charge_disk : t -> bytes:int -> Engine.Simtime.span -> unit
val incr_kernel_objects : t -> unit
val decr_kernel_objects : t -> unit
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
val reset : t -> unit
