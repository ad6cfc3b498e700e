(** §5.3 — baseline throughput of the event-driven server on the
    unmodified kernel, for cached 1 KB documents.

    Paper: 2 954 requests/s with one connection per request (338 µs of CPU
    per request) and 9 487 requests/s over persistent connections (105 µs
    per request), both CPU-saturated. *)

type result = {
  persistent : bool;
  throughput : float;  (** requests per second at saturation *)
  cpu_per_request_us : float;  (** measured busy CPU divided by requests *)
}

val scenario : persistent:bool -> Scenario.t
(** 32 closed-loop clients against the [select()] server, 2 s of warm-up
    and one 5 s window. *)

val run : Scenario.t -> result

val table : measure:Engine.Simtime.span -> Engine.Series.table
(** Both rows, connection per request first, each measured over
    [measure], with the paper's numbers alongside: the table
    [rc_sim baseline] prints. *)
