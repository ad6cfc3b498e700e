(* SMP extension experiments: what processor-confinement buys.

   Neither scenario exists in the paper (whose measurements are all
   uniprocessor); both test the multiprocessor claims its mechanisms
   imply.  [livelock_table] shows RSS interrupt steering confining a
   single-flow interrupt livelock to the one processor the flow hashes
   to, and [hot_table] shows per-processor run-queue shards preserving
   fixed-share guarantees on one CPU while another is saturated by a
   best-effort container. *)

module Simtime = Engine.Simtime
module Attrs = Rescont.Attrs
module Ipaddr = Netsim.Ipaddr

(* --- Interrupt livelock confined to one processor ------------------- *)

let flood_src = Ipaddr.v 192 168 66 1

(* Unmodified kernel (softirq mode), a single-source SYN flood, and a
   population of legitimate clients.  All the attack packets carry the
   same flow identity, so RSS steers every one of them — and the
   interrupt-level protocol processing they trigger — to the same
   processor.  On a uniprocessor that is the whole machine: classic
   receive livelock.  With more processors the flood saturates only its
   steered CPU and the clients whose flows hash elsewhere never notice. *)
let livelock_table ~warmup ~measure =
  let t =
    Engine.Series.table
      ~title:
        "Extension: single-flow interrupt livelock vs processor count (unmodified \
         kernel, RSS steering)"
      ~columns:
        [ "processors"; "flood CPU"; "flood CPU busy"; "other CPUs busy (max)";
          "good clients (req/s)" ]
  in
  List.iter
    (fun cpus ->
      let w =
        Scenario.window
          (Scenario.run
             {
               Scenario.base with
               system = Harness.Unmodified;
               cpus;
               groups = [ { Scenario.group with name = "good"; count = 16 } ];
               flood = Some { src_count = 1; rate = 40_000.; seed = None };
               warmup;
               windows = [ measure ];
             })
      in
      (* Interrupt charges book demand ahead of real time (the irq hold
         can extend past [now]), so under livelock the raw counter exceeds
         the measurement window.  Clamp to the physical bound: a processor
         cannot be more than 100% busy; the excess is queued demand. *)
      let busy = List.map (fun b -> Float.min 1.0 (Simtime.ratio b measure)) w.busy in
      (* The stack's RSS steering: the flood's flow hash, reduced mod cpus. *)
      let flood_cpu = if cpus <= 1 then 0 else Netsim.Stack.flow_hash flood_src 0 mod cpus in
      let others = List.filteri (fun i _ -> i <> flood_cpu) busy in
      Engine.Series.add_row t
        [
          string_of_int cpus;
          string_of_int flood_cpu;
          Printf.sprintf "%.0f%%" (100. *. List.nth busy flood_cpu);
          (if cpus = 1 then "-"
           else Printf.sprintf "%.0f%%" (100. *. List.fold_left Float.max 0. others));
          Printf.sprintf "%.0f" (Scenario.throughput w "good");
        ])
    [ 1; 2; 4 ];
  t

(* --- Fixed-share guarantees while one core is saturated -------------- *)

(* An RC machine with one run-queue shard per processor.  A best-effort
   container saturates processor 0 with an always-runnable thread; two
   fixed-share containers and a best-effort filler, all pinned to
   processor 1, compete for that one.  The shares are per-shard
   guarantees: whatever the hot container does to its own processor, the
   multilevel scheduler on processor 1 must still deliver 50% / 25% to
   the guaranteed containers.  Each row: container, its spinning thread,
   processor, guaranteed share of it (0 = best effort). *)
let hot_rows =
  [
    ("hot", "hot-spin", 0, 0., Attrs.timeshare ~priority:30 ());
    ("fixed-half", "half-spin", 1, 0.5, Attrs.fixed_share ~share:0.5 ());
    ("fixed-quarter", "quarter-spin", 1, 0.25, Attrs.fixed_share ~share:0.25 ());
    ("besteffort", "filler-spin", 1, 0., Attrs.timeshare ~priority:10 ());
  ]

let hot_table ~measure =
  let w =
    Scenario.window
      (Scenario.run
         {
           Scenario.base with
           cpus = 4;
           containers =
             List.map
               (fun (name, _, _, _, attrs) -> { Scenario.name; parent = None; attrs })
               hot_rows;
           spinners =
             List.map
               (fun (container, thread, cpu, _, _) ->
                 { Scenario.thread; container; cpu = Some cpu; burst = Simtime.us 500 })
               hot_rows;
           servers = [];
           groups = [];
           warmup = Simtime.ms 200;
           windows = [ measure ];
         })
  in
  let t =
    Engine.Series.table
      ~title:
        (Printf.sprintf
           "Extension: fixed shares under a saturated core (RC kernel, hot core %.0f%% \
            busy)"
           (100. *. Simtime.ratio (List.hd w.busy) measure))
      ~columns:[ "container"; "processor"; "guaranteed share"; "measured share" ]
  in
  List.iter
    (fun (name, _, cpu, guaranteed, _) ->
      Engine.Series.add_row t
        [
          name;
          string_of_int cpu;
          (if guaranteed = 0. then "best effort"
           else Printf.sprintf "%.0f%%" (100. *. guaranteed));
          Printf.sprintf "%.1f%%"
            (100. *. Simtime.ratio (Scenario.usage_of w name).cpu measure);
        ])
    hot_rows;
  t
