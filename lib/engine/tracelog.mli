(** Lightweight in-simulation tracing.

    Subsystems record timestamped {!Trace_event.t} values; tests, exporters
    and debugging sessions consume them structurally or as rendered text.
    Tracing defaults to disabled.  Call sites that build typed events should
    guard construction with {!enabled} so a disabled trace costs one branch
    and no allocation:

    {[ if Tracelog.enabled trace then
         Tracelog.event trace now (Trace_event.Kill { thread }) ]} *)

type t

type entry = { time : Simtime.t; event : Trace_event.t }

val create : ?enabled:bool -> ?capacity:int -> unit -> t
(** [capacity] bounds retained entries; the oldest are dropped first. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val event : t -> Simtime.t -> Trace_event.t -> unit
(** Record a typed event (no-op when disabled). *)

val entries : t -> entry list
(** Retained entries, oldest first. *)

val find : t -> category:string -> entry list
(** Entries whose {!Trace_event.category} equals [category]. *)

val clear : t -> unit

val to_jsonl : t -> string
(** Retained entries as JSON lines, oldest first.  Each line is the event's
    {!Trace_event.to_json} object with ["t_ns"] (timestamp in nanoseconds)
    and ["cat"] (the category) prepended. *)

val entries_to_jsonl : entry list -> string
(** {!to_jsonl} of entries already taken from a log. *)

val pp_entry : Format.formatter -> entry -> unit
