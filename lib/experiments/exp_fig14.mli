(** Figure 14 — immunity against SYN-flooding (paper §5.7).

    Malicious clients blast bogus SYNs (spoofed sources in a /24, never
    completing the handshake) at the server's HTTP port while well-behaved
    clients fetch the cached 1 KB document.

    - ["Unmodified System"]: every bogus SYN costs full interrupt-level
      protocol processing (~99 µs) and pollutes the shared SYN queue;
      throughput collapses to zero around 10 000 SYNs/s.
    - ["LRP System"]: early demultiplexing bounds the interrupt-level cost,
      but without source-address filters the flood shares the one
      per-process queue with legitimate traffic (the paper notes LRP
      "cannot protect against such SYN floods").
    - ["With Resource Containers"]: the server binds a filtered listen
      socket covering the attacker's prefix to a container with numeric
      priority 0; bogus SYNs cost only interrupt + early demultiplexing
      (~3.9 µs) before being queued behind an idle-class container (and
      dropped for free once that queue fills).  At 70 000 SYNs/s the
      remaining throughput is ≈ 73 % of maximum. *)

type variant = Unmod_flood | Lrp_flood | Rc_filtered

val variant_name : variant -> string

val scenario : variant -> syn_rate:float -> Scenario.t
(** 24 well-behaved clients (group ["good"]) under a flood of [syn_rate]
    SYNs/s (none at 0), 2 s of warm-up and one 5 s window. *)

val throughput : Scenario.t -> float
(** Well-behaved-client throughput (requests/s). *)

val figure :
  rates:float list -> measure:Engine.Simtime.span -> jobs:int -> Engine.Series.figure
(** One curve per system over the flood [rates], each point measured
    over [measure].  [jobs] fans the grid across domains
    (see {!Harness.Sweep}). *)
