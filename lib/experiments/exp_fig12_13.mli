(** Figures 12 and 13 — controlling the resource usage of CGI processing
    (paper §5.6).

    A static load saturates the server while an increasing number of
    concurrent CGI requests, each consuming ~2 s of CPU, compete for the
    machine.  Figure 12 reports the throughput the static requests still
    achieve; Figure 13 reports the CPU share consumed by CGI processing.

    Four systems:
    - ["Unmodified"]: CGI processes timeshare equally with the server, but
      interrupt misaccounting lets the server keep more than its fair
      share.
    - ["LRP"]: accounting is fixed, so the server falls to exactly
      1/(N+1) — static throughput drops {e further}.
    - ["RC (30% cap)"] and ["RC (10% cap)"]: each CGI request's container
      is a child of a CGI-parent container whose fixed share and CPU limit
      cap all CGI work; static throughput stays nearly constant and the
      caps are enforced almost exactly. *)

type variant = Unmod | Lrp | Rc_capped of float

val variant_name : variant -> string

type point = { static_throughput : float; cgi_cpu_share : float }

val scenario : variant -> concurrent_cgi:int -> Scenario.t
(** 24 static clients (group ["static"]) and [concurrent_cgi] CGI
    clients, 5 s of warm-up and one 15 s window. *)

val run : Scenario.t -> point

val figures :
  cgi_counts:int list ->
  measure:Engine.Simtime.span ->
  jobs:int ->
  Engine.Series.figure * Engine.Series.figure
(** (Figure 12, Figure 13) over [cgi_counts] concurrent CGI requests,
    each point measured over [measure], with the four
    systems as curves.  [jobs] fans the grid across domains (see
    {!Harness.Sweep}). *)
