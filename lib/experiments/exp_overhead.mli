(** §5.4 — overhead of using resource containers.

    The paper verifies that creating a new resource container for every
    HTTP request leaves server throughput "effectively unchanged".  This
    experiment runs the RC system with and without per-connection
    containers and reports both throughputs and the relative difference. *)

type result = {
  without_containers : float;
  with_containers : float;
  relative_change : float;  (** (with - without) / without *)
}

val scenario : Scenario.t
(** The RC server without per-connection containers under 48 clients,
    2 s of warm-up and one 5 s window. *)

val run : Scenario.t -> result
(** The scenario as given, and again with a container (priority 10) per
    connection. *)

val table : unit -> Engine.Series.table
