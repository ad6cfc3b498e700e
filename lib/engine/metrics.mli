(** A registry of named, optionally labelled metrics.

    Subsystems register two kinds of instrument:

    - {e counters}: monotonically increasing integers mutated on the hot
      path (an increment costs one field write — cheap enough for the
      dispatcher);
    - {e gauges}: pull-style — a closure sampled at snapshot time, used to
      expose existing mutable statistics (e.g. the network stack's drop
      counters) without duplicating state, so the exported value agrees
      with the in-process view by construction.

    Identity is [(name, labels)].  Requesting an existing counter returns
    the registered instrument (so several components may share one by
    name); registering a gauge under an existing identity replaces the
    previous closure.  Snapshots are sorted by name then labels, so
    exports are deterministic. *)

type t

type labels = (string * string) list

type counter

val create : unit -> t

(** {1 Registration} *)

val counter : t -> ?labels:labels -> string -> counter
val gauge : t -> ?labels:labels -> string -> (unit -> float) -> unit
(** @raise Invalid_argument when an existing identity is bound to an
    instrument of a different kind. *)

val make_counter : ?labels:labels -> string -> counter
(** A free-standing counter, registered later (or never) with
    {!register_counter}; lets a component count before it learns which
    registry it reports into. *)

val register_counter : t -> counter -> unit

(** {1 Mutation and reading} *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

(** {1 Snapshots} *)

type value = Counter of int | Gauge of float

type sample = { name : string; labels : labels; value : value }

val snapshot : t -> sample list
(** Current value of every registered metric, sorted by (name, labels). *)

val value : t -> ?labels:labels -> string -> value option
(** Look up one metric's current value. *)

val to_json : t -> Jsonx.t
(** [{ "schema_version": 1, "metrics": [ {"name", "labels", "kind",
    "value"} ] }], with ["kind"] either ["counter"] or ["gauge"]. *)

val pp : Format.formatter -> t -> unit
(** Aligned human-readable dump of a snapshot. *)
