(** Ablations over design choices the paper calls out.

    - {b Scheduler family}: the container hierarchy can be driven by
      different proportional-share policies (the prototype's multi-level
      scheduler, classic decay-usage, lottery [48], stride [47]).  Three
      CPU-bound containers with 3:2:1 priorities should converge to 50 /
      33 / 17 % under any proportional policy; this table shows how close
      each gets.
    - {b Scheduler-binding pruning} (§4.3): a thread multiplexed over many
      containers accretes scheduler-binding entries; the kernel prunes
      stale ones.  The table compares set sizes with and without pruning.
    - {b Softirq charging} (§3.1): charging interrupt-level protocol
      processing to "the unlucky process" vs "no process at all" changes
      who wins under CGI competition (the Fig. 13 skew). *)

val scheduler_family_table :
  ?measure:Engine.Simtime.span -> unit -> Engine.Series.table

val binding_prune_table : unit -> Engine.Series.table
(** One thread multiplexed over 32 containers, with and without pruning. *)

val quantum_table : unit -> Engine.Series.table
(** Baseline behaviour under 0.1 / 1 / 10 ms scheduling quanta. *)

val smp_scaling_table : unit -> Engine.Series.table
(** Extension beyond the paper: the Fig. 3 multi-threaded server on 1, 2
    and 4 simulated processors. *)

val softirq_charging_table : unit -> Engine.Series.table
(** Four CGI clients against the static load on the unmodified kernel. *)
