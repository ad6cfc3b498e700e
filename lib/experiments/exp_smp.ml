(* SMP extension experiments: what processor-confinement buys.

   Neither scenario exists in the paper (whose measurements are all
   uniprocessor); both test the multiprocessor claims its mechanisms
   imply.  [livelock_table] shows RSS interrupt steering confining a
   single-flow interrupt livelock to the one processor the flow hashes
   to, and [hot_table] shows per-processor run-queue shards preserving
   fixed-share guarantees on one CPU while another is saturated by a
   best-effort container. *)

module Simtime = Engine.Simtime
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Machine = Procsim.Machine
module Stack = Netsim.Stack
module Socket = Netsim.Socket
module Ipaddr = Netsim.Ipaddr
module Event_server = Httpsim.Event_server
module Sclient = Workload.Sclient
module Synflood = Workload.Synflood

(* --- Interrupt livelock confined to one processor ------------------- *)

type livelock_point = {
  l_cpus : int;
  l_flood_cpu : int;  (* processor the attack flow steers to *)
  l_flood_cpu_busy : float;  (* busy fraction of that processor *)
  l_other_busy_max : float;  (* highest busy fraction among the others *)
  l_good_rps : float;  (* legitimate-client throughput *)
}

let flood_src = Ipaddr.v 192 168 66 1

(* Unmodified kernel (softirq mode), a single-source SYN flood, and a
   population of legitimate clients.  All the attack packets carry the
   same flow identity, so RSS steers every one of them — and the
   interrupt-level protocol processing they trigger — to the same
   processor.  On a uniprocessor that is the whole machine: classic
   receive livelock.  With more processors the flood saturates only its
   steered CPU and the clients whose flows hash elsewhere never notice. *)
let livelock_run ?(good_clients = 16) ?(syn_rate = 40_000.) ?(warmup = Simtime.sec 1)
    ?(measure = Simtime.sec 4) ~cpus () =
  let rig = Harness.make_rig ~cpus Harness.Unmodified in
  let machine = rig.Harness.machine in
  let listen =
    Socket.make_unbound_listen ~port:Harness.default_port (Container.run rig.Harness.root)
  in
  let server =
    Event_server.create ~stack:rig.Harness.stack ~process:rig.Harness.server_proc
      ~cache:rig.Harness.cache ~api:Event_server.Select ~listens:[ listen ] ()
  in
  ignore (Event_server.start server);
  let good =
    Sclient.create ~stack:rig.Harness.stack ~name:"good" ~port:Harness.default_port
      ~path:Harness.doc_path ~count:good_clients ()
  in
  Sclient.start good;
  let flood =
    Synflood.create ~stack:rig.Harness.stack ~src_base:flood_src ~src_count:1
      ~port:Harness.default_port ~rate_per_sec:syn_rate ()
  in
  Synflood.start flood;
  Harness.run_for rig warmup;
  Sclient.reset_stats good;
  let busy0 = Array.init cpus (Machine.busy_time_on machine) in
  Harness.run_for rig measure;
  (* Interrupt charges book demand ahead of real time (the irq hold can
     extend past [now]), so under livelock the raw counter exceeds the
     measurement window.  Clamp to the physical bound: a processor cannot
     be more than 100% busy; the excess is queued demand. *)
  let busy_frac i =
    Float.min 1.0
      (Simtime.ratio (Simtime.span_sub (Machine.busy_time_on machine i) busy0.(i)) measure)
  in
  let flood_cpu = Stack.rss_steer rig.Harness.stack flood_src 0 in
  let other_max = ref 0. in
  for i = 0 to cpus - 1 do
    if i <> flood_cpu then other_max := Float.max !other_max (busy_frac i)
  done;
  {
    l_cpus = cpus;
    l_flood_cpu = flood_cpu;
    l_flood_cpu_busy = busy_frac flood_cpu;
    l_other_busy_max = !other_max;
    l_good_rps = float_of_int (Sclient.completed good) /. Simtime.span_to_sec_f measure;
  }

let livelock_table ?good_clients ?syn_rate ?warmup ?measure () =
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
      let r = livelock_run ?good_clients ?syn_rate ?warmup ?measure ~cpus () in
      Engine.Series.add_row t
        [
          string_of_int r.l_cpus;
          string_of_int r.l_flood_cpu;
          Printf.sprintf "%.0f%%" (100. *. r.l_flood_cpu_busy);
          (if cpus = 1 then "-" else Printf.sprintf "%.0f%%" (100. *. r.l_other_busy_max));
          Printf.sprintf "%.0f" r.l_good_rps;
        ])
    [ 1; 2; 4 ];
  t

(* --- Fixed-share guarantees while one core is saturated -------------- *)

type hot_point = {
  h_name : string;
  h_cpu : int;
  h_guaranteed : float;  (* share of its processor; 0 = best effort *)
  h_measured : float;  (* achieved share of one processor's time *)
}

type hot_result = { h_points : hot_point list; h_hot_cpu_busy : float }

(* An RC machine with one run-queue shard per processor.  A best-effort
   container saturates processor 0 with an always-runnable thread; two
   fixed-share containers and a best-effort filler, all pinned to
   processor 1, compete for that one.  The shares are per-shard
   guarantees: whatever the hot container does to its own processor, the
   multilevel scheduler on processor 1 must still deliver 50% / 25% to
   the guaranteed containers. *)
let hot_run ?(cpus = 4) ?(warmup = Simtime.ms 200) ?(measure = Simtime.sec 2) () =
  if cpus < 2 then invalid_arg "Exp_smp.hot_run: needs at least 2 processors";
  let rig = Harness.make_rig ~cpus Harness.Rc_sys in
  let machine = rig.Harness.machine in
  let root = rig.Harness.root in
  let mk name attrs = Container.create ~parent:root ~name ~attrs () in
  let hot = mk "hot" (Attrs.timeshare ~priority:30 ()) in
  let half = mk "fixed-half" (Attrs.fixed_share ~share:0.5 ()) in
  let quarter = mk "fixed-quarter" (Attrs.fixed_share ~share:0.25 ()) in
  let filler = mk "besteffort" (Attrs.timeshare ~priority:10 ()) in
  let spin ~cpu ~name container =
    ignore
      (Machine.spawn machine ~cpu ~name ~container (fun () ->
           while true do
             Machine.cpu (Simtime.us 500)
           done))
  in
  spin ~cpu:0 ~name:"hot-spin" hot;
  spin ~cpu:1 ~name:"half-spin" half;
  spin ~cpu:1 ~name:"quarter-spin" quarter;
  spin ~cpu:1 ~name:"filler-spin" filler;
  Harness.run_for rig warmup;
  let used0 = List.map (fun c -> (c, Container.subtree_cpu c)) [ hot; half; quarter; filler ] in
  let busy0 = Machine.busy_time_on machine 0 in
  Harness.run_for rig measure;
  let share c =
    let before = List.assq c used0 in
    Simtime.ratio (Simtime.span_sub (Container.subtree_cpu c) before) measure
  in
  {
    h_points =
      [
        { h_name = "hot"; h_cpu = 0; h_guaranteed = 0.; h_measured = share hot };
        { h_name = "fixed-half"; h_cpu = 1; h_guaranteed = 0.5; h_measured = share half };
        {
          h_name = "fixed-quarter";
          h_cpu = 1;
          h_guaranteed = 0.25;
          h_measured = share quarter;
        };
        { h_name = "besteffort"; h_cpu = 1; h_guaranteed = 0.; h_measured = share filler };
      ];
    h_hot_cpu_busy =
      Simtime.ratio (Simtime.span_sub (Machine.busy_time_on machine 0) busy0) measure;
  }

let hot_table ?cpus ?warmup ?measure () =
  let r = hot_run ?cpus ?warmup ?measure () in
  let t =
    Engine.Series.table
      ~title:
        (Printf.sprintf
           "Extension: fixed shares under a saturated core (RC kernel, hot core %.0f%% \
            busy)"
           (100. *. r.h_hot_cpu_busy))
      ~columns:[ "container"; "processor"; "guaranteed share"; "measured share" ]
  in
  List.iter
    (fun p ->
      Engine.Series.add_row t
        [
          p.h_name;
          string_of_int p.h_cpu;
          (if p.h_guaranteed = 0. then "best effort"
           else Printf.sprintf "%.0f%%" (100. *. p.h_guaranteed));
          Printf.sprintf "%.1f%%" (100. *. p.h_measured);
        ])
    r.h_points;
  t
