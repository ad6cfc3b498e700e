(** Extension: the latency/throughput trade-off of the baseline server.

    The paper reports mean response times at fixed load points; this
    experiment sweeps the number of closed-loop clients and records
    throughput alongside mean, median and tail (p99) latency — the classic
    hockey-stick curve that shows where the §5.3 saturation points sit.
    Run under any of the three kernel configurations. *)

val figure :
  client_counts:int list ->
  measure:Engine.Simtime.span ->
  jobs:int ->
  Harness.system ->
  Engine.Series.figure
(** Curves: throughput, mean, p50, p99 over [client_counts] clients with
    1 ms of think-time jitter (seed 42), each point measured over
    [measure] after 2 s of warm-up.  [jobs] fans the sweep across domains (see
    {!Harness.Sweep}). *)
