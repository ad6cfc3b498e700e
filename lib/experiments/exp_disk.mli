(** Disk-bandwidth extension experiments (paper §4.4).

    The paper claims resource containers generalise beyond CPU: "the use
    of other system resources such as physical memory, disk bandwidth and
    socket buffers can be conveniently controlled by resource containers".
    These experiments exercise the disk substrate:

    - {b Architecture under a cold cache}: a Zipf-popular document set
      larger than the file cache forces disk reads.  The single-threaded
      event-driven server blocks on every miss (no overlap), while the
      multi-threaded server overlaps misses with other requests — the
      classic architectural trade-off from §2 that the warm-cache
      experiments hide.
    - {b Disk-bandwidth isolation}: two client classes with different
      container priorities issue miss-heavy workloads; the disk queue is
      drained in container-priority order, so the premium class sees
      far lower response times at equal demand. *)

type arch_point = { architecture : string; throughput : float; mean_latency_ms : float }

val architecture_scenario : [ `Event_driven | `Multi_threaded ] -> Scenario.t
(** 16 clients on the Zipf corpus, 3 s of warm-up and one 10 s window. *)

val architecture_run : Scenario.t -> arch_point
val architecture_table : unit -> Engine.Series.table

val pool_table : workers_list:int list -> Engine.Series.table
(** Worker-pool sizing: throughput of the threaded server over a
    miss-heavy workload as the pool grows — more threads overlap more
    blocking disk reads, until the spindle saturates. *)

type isolation_point = {
  premium_latency_ms : float;
  standard_latency_ms : float;
  premium_disk_share : float;  (** premium fraction of disk-busy time *)
}

val isolation_scenario : Scenario.t
(** 4 premium and 12 standard clients, 3 s of warm-up and one 10 s
    window. *)

val isolation_run : Scenario.t -> isolation_point
val isolation_table : unit -> Engine.Series.table
