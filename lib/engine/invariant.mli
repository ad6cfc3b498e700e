(** Conservation-law registry.

    The paper's central accounting claim — every unit of consumption is
    charged to exactly one resource container (§4.4, §5.1) — is checked
    mechanically rather than asserted: each subsystem registers {e laws}
    (closures re-deriving a quantity from first principles and comparing it
    with the incrementally-maintained one), and the machine runs every law
    at a configurable interval and at simulation quiesce.

    A registry is inert until {!arm}ed; registration is always safe and
    costs nothing on the simulation fast paths. *)

type violation = { law : string; detail : string }

exception Violation of violation

val pp_violation : Format.formatter -> violation -> unit

type t

val create : unit -> t

val register : t -> law:string -> (unit -> (unit, string) result) -> unit
(** Add a named law.  Laws run in registration order; a law that raises is
    reported as a violation of itself (checks must be total).  A name
    already registered gets the first free suffix [#2], [#3], …, so each
    law's violations name it alone. *)

val names : t -> string list

val arm : t -> unit
(** Mark the registry active.  Subsystems holding a registry only schedule
    periodic checks (and enable strict charging) when it is armed. *)

val disarm : t -> unit
val armed : t -> bool

val check : t -> violation list
(** Run every law; returns all violations (empty = all laws hold). *)

val check_exn : t -> unit
(** Like {!check} but raises {!Violation} on the first failure. *)

val checks_run : t -> int
(** Number of {!check}/{!check_exn} sweeps performed. *)

val violations_seen : t -> int

(** {1 Law-writing helpers} *)

val require : bool -> ('a, Format.formatter, unit, (unit, string) result) format4 -> 'a
(** [require cond fmt args...] is [Ok ()] when [cond] holds, else [Error]
    with the formatted message.  The message is only formatted on failure. *)

val equal_int : what:string -> int -> int -> (unit, string) result
(** [equal_int ~what expected actual].  Like {!leq_int} and {!non_negative},
    a passing call allocates nothing, so pass a constant [~what] or build
    it only after the comparison has failed. *)

val leq_int : what:string -> int -> int -> (unit, string) result
val non_negative : what:string -> int -> (unit, string) result
