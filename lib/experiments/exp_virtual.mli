(** §5.8 — isolation of virtual servers (Rent-A-Server).

    Three guest Web servers run on one machine, each rooted in a top-level
    container with a fixed CPU share (50 / 30 / 20 %).  Each guest serves
    its own port with its own server process and CGI back-ends, under
    deliberately unequal client load.  The paper reports that the CPU
    consumed by each guest exactly matched its allocation; this experiment
    makes that quantitative, and also shows each guest re-dividing its own
    allocation internally (a per-guest CGI sandbox). *)

type guest_result = {
  name : string;
  allocated_share : float;
  measured_share : float;
  static_throughput : float;
  cgi_share_within_guest : float;  (** CGI CPU over total guest CPU. *)
}

val scenario : Scenario.t
(** Three guests with shares 0.5, 0.3 and 0.2, each driven by 16 static
    and 2 CGI clients (all saturating, so measured share should equal
    allocation), 5 s of warm-up and one 15 s window. *)

val run : Scenario.t -> guest_result list
(** One result per top-level fixed-share container. *)

val table : unit -> Engine.Series.table
