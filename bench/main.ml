(* Benchmark harness for the Resource Containers reproduction.

   Table 1: Bechamel micro-benchmarks of the container primitives
   (the paper invoked each new system call 10 000 times and averaged; here
   each primitive gets a proper OLS fit over monotonic-clock samples),
   then the scheduler, event-queue, packet-path and cache micro-benchmarks.
   The figures and experiments of §5 are reproduced by [rc_sim all] alone.

   Run with: dune exec bench/main.exe            (micro-benchmarks, ~minutes)
             dune exec bench/main.exe -- --json [--fast] [--label NAME]
               (machine-readable fast-path metrics on stdout; redirect to a
                BENCH_*.json and diff with bench/compare.exe — see the
                Benchmarking section of EXPERIMENTS.md)
             dune exec bench/main.exe -- --json --smoke
               (CI smoke: tiny quotas, output too noisy to gate on)        *)

open Bechamel
open Toolkit
module Simtime = Engine.Simtime
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Binding = Rescont.Binding
module Desc_table = Rescont.Desc_table
module Ops = Rescont.Ops

(* {1 Part 1: Table 1 micro-benchmarks} *)

let bench_create () =
  let run = Container.run (Container.create_root ()) in
  Test.make ~name:"create+destroy container"
    (Staged.stage (fun () ->
         let c = Container.create_detached ~name:"bench" run in
         Container.destroy c))

let bench_rebind () =
  let root = Container.create_root () in
  let parent = Container.create ~parent:root ~attrs:(Attrs.fixed_share ~share:1.0 ()) () in
  let a = Container.create ~parent () in
  let b = Container.create ~parent () in
  let binding = Binding.create ~now:Simtime.zero a in
  let flip = ref false in
  Test.make ~name:"change thread's resource binding"
    (Staged.stage (fun () ->
         flip := not !flip;
         Binding.set_resource_binding binding ~now:Simtime.zero (if !flip then b else a)))

let bench_get_usage () =
  let root = Container.create_root () in
  let table = Desc_table.create () in
  let d = Ops.rc_create table ~parent:root () in
  Test.make ~name:"obtain container resource usage"
    (Staged.stage (fun () -> ignore (Ops.rc_get_usage table d)))

let bench_attrs () =
  let root = Container.create_root () in
  let table = Desc_table.create () in
  let d = Ops.rc_create table ~parent:root () in
  let hi = Attrs.timeshare ~priority:9 () and lo = Attrs.timeshare ~priority:5 () in
  let flip = ref false in
  Test.make ~name:"set-get container attributes"
    (Staged.stage (fun () ->
         flip := not !flip;
         Ops.rc_set_attrs table d (if !flip then hi else lo);
         ignore (Ops.rc_get_attrs table d)))

let bench_move () =
  let root = Container.create_root () in
  let src = Desc_table.create () in
  let dst = Desc_table.create () in
  let d = Ops.rc_create src ~parent:root () in
  Test.make ~name:"move container between processes"
    (Staged.stage (fun () ->
         let d' = Ops.rc_transfer ~src ~dst d in
         Desc_table.close dst d'))

let bench_handle () =
  let root = Container.create_root () in
  let table = Desc_table.create () in
  let d = Ops.rc_create table ~parent:root () in
  let c = Desc_table.lookup table d in
  Test.make ~name:"obtain handle for existing container"
    (Staged.stage (fun () ->
         let d' = Ops.rc_get_handle table c in
         Desc_table.close table d'))

let bench_charge () =
  let root = Container.create_root () in
  let mid = Container.create ~parent:root ~attrs:(Attrs.fixed_share ~share:1.0 ()) () in
  let leaf = Container.create ~parent:mid () in
  Test.make ~name:"charge cpu through 3-level hierarchy"
    (Staged.stage (fun () -> Container.charge_cpu leaf ~kernel:true (Simtime.us 1)))

(* Built afresh for each group that runs them: the create+destroy loop
   claims two ledger slots per iteration, millions over a quota, and
   that arena must not stay live (and be marked by every later major
   collection) once the group is done. *)
let table1_tests () =
  [
    bench_create (); bench_rebind (); bench_get_usage (); bench_attrs (); bench_move ();
    bench_handle (); bench_charge ();
  ]

(* Bechamel's stock [Instance.minor_allocated] reads
   [(Gc.quick_stat ()).minor_words], which on OCaml 5 only reflects
   counters merged at collection boundaries — every sample reads the same
   value and the OLS slope comes out exactly 0.  [Gc.minor_words ()] reads
   the live allocation pointer of the current domain, so register our own
   measure around it. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "mw"
end

let minor_words_instance =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

(* Run a group of Bechamel tests and return [(name, ns/op, minor words/op)]
   sorted by name — one OLS fit per instance over the same raw samples. *)
let ols_estimates2 ~group ~cfg tests =
  let instances = [ Instance.monotonic_clock; minor_words_instance ] in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:group tests) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let estimate_of results name =
    match Hashtbl.find_opt results name with
    | Some result -> (
        match Analyze.OLS.estimates result with
        | Some (v :: _) -> Some v
        | Some [] | None -> None)
    | None -> None
  in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  let words = Analyze.all ols minor_words_instance raw in
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) times [] in
  List.sort compare
    (List.map (fun name -> (name, estimate_of times name, estimate_of words name)) names)

let ols_estimates ~group ~cfg tests =
  List.map (fun (name, ns, _) -> (name, ns)) (ols_estimates2 ~group ~cfg tests)

let table1_cfg () = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ()

let run_table1_microbench () =
  let estimates = ols_estimates ~group:"table1" ~cfg:(table1_cfg ()) (table1_tests ()) in
  let table =
    Engine.Series.table
      ~title:"Table 1: container primitive costs (Bechamel, this library) vs paper"
      ~columns:[ "operation"; "this library (ns/op)"; "paper on 500MHz Alpha (us)" ]
  in
  let paper_of name =
    if name = "table1/create+destroy container" then "2.36 + 2.10"
    else if name = "table1/change thread's resource binding" then "1.04"
    else if name = "table1/obtain container resource usage" then "2.04"
    else if name = "table1/set-get container attributes" then "2.10"
    else if name = "table1/move container between processes" then "3.15"
    else if name = "table1/obtain handle for existing container" then "1.90"
    else "-"
  in
  List.iter
    (fun (name, estimate) ->
      let estimate =
        match estimate with Some ns -> Printf.sprintf "%.1f" ns | None -> "-"
      in
      Engine.Series.add_row table [ name; estimate; paper_of name ])
    estimates;
  Format.printf "%a@." Engine.Series.pp_table table

(* {1 Part 1b: scheduler capacity micro-benchmarks}

   How expensive is a scheduling decision as the container population
   grows?  One pick+charge round trip of the prototype's multilevel
   scheduler (both the incremental implementation and its list-and-sort
   reference, so the speedup stays measured) and of the flat decay-usage
   scheduler, against 10 / 100 / 1000 runnable containers. *)

let sched_bench_policy name make_policy n =
  let root = Container.create_root () in
  let class_parent =
    Container.create ~parent:root ~attrs:(Attrs.fixed_share ~share:1.0 ()) ()
  in
  let policy = make_policy root in
  for i = 1 to n do
    let c = Container.create ~parent:class_parent ~name:(Printf.sprintf "c%d" i) () in
    let task = Sched.Task.create ~name:(Printf.sprintf "t%d" i) (Binding.create ~now:Simtime.zero c) in
    policy.Sched.Policy.enqueue task
  done;
  let now = ref 0 in
  Test.make
    ~name:(Printf.sprintf "%s pick+charge, %d containers" name n)
    (Staged.stage (fun () ->
         incr now;
         let task = policy.Sched.Policy.pick ~now:(Simtime.of_ns !now) in
         if not (Sched.Task.is_none task) then
           policy.Sched.Policy.charge
             ~container:(Sched.Task.container task)
             ~now:(Simtime.of_ns !now) (Simtime.us 10)))

let sched_tests () =
  List.concat_map
    (fun n ->
      [
        sched_bench_policy "multilevel" (fun root -> Sched.Multilevel.make ~root ()) n;
        sched_bench_policy "multilevel-ref" (fun root -> Spec.Multilevel_ref.make ~root ()) n;
        sched_bench_policy "timeshare" (fun _ -> Sched.Timeshare.make ()) n;
      ])
    [ 10; 100; 1000 ]

let sched_cfg () = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ()

(* {1 Part 1b': SMP dispatch micro-benchmarks}

   Cost of one scheduling round on a 4-processor machine: every processor
   picks and charges once, against a single shared run queue holding the
   whole task population versus per-CPU shards each holding a quarter.
   Sharding keeps each queue's population — and hence each decision —
   smaller, which is the capacity argument for per-CPU run queues. *)

let smp_cpus = 4

let smp_bench_dispatch ~sharded n =
  let root = Container.create_root () in
  let class_parent =
    Container.create ~parent:root ~attrs:(Attrs.fixed_share ~share:1.0 ()) ()
  in
  let pols =
    if sharded then Array.init smp_cpus (fun _ -> Sched.Multilevel.make ~root ())
    else Array.make smp_cpus (Sched.Multilevel.make ~root ())
  in
  for i = 1 to n do
    let c = Container.create ~parent:class_parent ~name:(Printf.sprintf "c%d" i) () in
    let task =
      Sched.Task.create ~name:(Printf.sprintf "t%d" i) (Binding.create ~now:Simtime.zero c)
    in
    pols.(i mod smp_cpus).Sched.Policy.enqueue task
  done;
  let now = ref 0 in
  Test.make
    ~name:
      (Printf.sprintf "4-CPU dispatch round, %d tasks, %s" n
         (if sharded then "per-CPU queues" else "shared queue"))
    (Staged.stage (fun () ->
         incr now;
         for cpu = 0 to smp_cpus - 1 do
           let pol = pols.(cpu) in
           let task = pol.Sched.Policy.pick ~now:(Simtime.of_ns !now) in
           if not (Sched.Task.is_none task) then
             pol.Sched.Policy.charge
               ~container:(Sched.Task.container task)
               ~now:(Simtime.of_ns !now) (Simtime.us 10)
         done))

let smp_tests () =
  List.concat_map
    (fun n -> [ smp_bench_dispatch ~sharded:false n; smp_bench_dispatch ~sharded:true n ])
    [ 64; 256 ]

(* {1 Part 1b'': per-connection container churn}

   The §5.4 server gives every connection its own container: per request
   one container is created, queued on, drained and destroyed, and the
   server thread rebinds to it and back, so its scheduler-binding set holds
   every container served within the prune age (~1000 of them).  Both
   costs must track live state, not history:

   - churn: one create-leaf, enqueue, dequeue, destroy cycle on a
     multilevel run queue that also holds a standing task, timed by hand
     after 10^3 and after 10^5 prior cycles (Bechamel's own iterations
     would grow the history under the measurement).  Their ratio is the
     gate-able churn flatness; 1.0 is perfectly flat.
   - rebind+touch: rebind to a member, touch, rebind to the default
     container, touch — against a standing 1000-entry set whose default
     container is its oldest member. *)

let churn_cycle () =
  let root = Container.create_root () in
  let parent = Container.create ~parent:root ~attrs:(Attrs.fixed_share ~share:1.0 ()) () in
  let policy = Sched.Multilevel.make ~root () in
  let home = Container.create ~parent () in
  policy.Sched.Policy.enqueue
    (Sched.Task.create ~name:"server" (Binding.create ~now:Simtime.zero home));
  fun () ->
    let leaf = Container.create ~parent () in
    let task = Sched.Task.create ~name:"conn" (Binding.create ~now:Simtime.zero leaf) in
    policy.Sched.Policy.enqueue task;
    policy.Sched.Policy.dequeue task;
    Binding.drop task.Sched.Task.binding;
    Container.release leaf

(* Median ns per cycle over five batches of 200 consecutive cycles. *)
let time_cycles cycle =
  let samples =
    Array.init 5 (fun _ ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to 200 do
          cycle ()
        done;
        (Unix.gettimeofday () -. t0) *. 1e9 /. 200.)
  in
  Array.sort Float.compare samples;
  samples.(2)

(* ns per churn cycle after 10^3 and after 10^5 prior cycles. *)
let churn_costs () =
  let cycle = churn_cycle () in
  for _ = 1 to 1_000 do
    cycle ()
  done;
  let early = time_cycles cycle in
  for _ = 1 to 100_000 - 2_000 do
    cycle ()
  done;
  (early, time_cycles cycle)

(* The same server seen from the scheduler: one connection has queued
   work, every other connection's container is an idle sibling.  Pick and
   charge with one busy leaf among N idle siblings, hand-timed like the
   churn cycle: batches of 2000 alternate between the 10- and 1000-sibling
   rigs, so both medians (of 9 batches each) see the same host phases.
   The ratio is the gate-able sibling flatness; a pick that scans every
   child reads 7-27 here, depending on the host. *)
let sibling_rig idle =
  let root = Container.create_root () in
  let parent = Container.create ~parent:root ~attrs:(Attrs.fixed_share ~share:1.0 ()) () in
  let policy = Sched.Multilevel.make ~root () in
  for i = 1 to idle do
    ignore (Container.create ~parent ~name:(Printf.sprintf "idle%d" i) ())
  done;
  let busy = Container.create ~parent ~name:"busy" () in
  policy.Sched.Policy.enqueue
    (Sched.Task.create ~name:"conn" (Binding.create ~now:Simtime.zero busy));
  let now = ref 0 in
  fun () ->
    incr now;
    let task = policy.Sched.Policy.pick ~now:(Simtime.of_ns !now) in
    if not (Sched.Task.is_none task) then
      policy.Sched.Policy.charge ~container:(Sched.Task.container task)
        ~now:(Simtime.of_ns !now) (Simtime.us 10)

(* Median ns per call of [a] and of [b], over 9 batches of [calls] each;
   the batches alternate, so both medians see the same host phases. *)
let alternating_medians ~calls a b =
  let batch f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to calls do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int calls
  in
  let pairs = Array.init 9 (fun _ -> let x = batch a in (x, batch b)) in
  let median f =
    let v = Array.map f pairs in
    Array.sort Float.compare v;
    v.(4)
  in
  (median fst, median snd)

let sibling_costs () =
  let few = sibling_rig 10 and many = sibling_rig 1000 in
  alternating_medians ~calls:2000 few many

(* The same server seen from the container tree: every open connection's
   container is an idle sibling of the one being created or destroyed.
   Create and release one leaf beside N idle siblings, hand-timed and
   alternated like the pick above.  The ratio is the gate-able flatness;
   a parent whose child list is copied on every adoption and detach reads
   ~70 here. *)
let leaf_rig idle =
  let root = Container.create_root () in
  let parent = Container.create ~parent:root ~attrs:(Attrs.fixed_share ~share:1.0 ()) () in
  for i = 1 to idle do
    ignore (Container.create ~parent ~name:(Printf.sprintf "idle%d" i) ())
  done;
  let leaf () = Container.release (Container.create ~parent ~name:"leaf" ()) in
  (* The rig is its own run, whose ledger arena starts at 256 slots,
     doubles when full and never reuses a slot; each leaf takes two.
     40 000 untimed leaves take the arena past its doubling to 131 072
     slots, and the 9 x 2 000 timed ones stay below that, so the timed
     batches see adoption and detach and no arena doubling (the table1
     create+destroy and churn rows keep measuring growth). *)
  for _ = 1 to 40_000 do
    leaf ()
  done;
  leaf

let leaf_costs () =
  let few = leaf_rig 10 and many = leaf_rig 1000 in
  alternating_medians ~calls:2000 few many

let bench_rebind_touch () =
  let root = Container.create_root () in
  let parent = Container.create ~parent:root ~attrs:(Attrs.fixed_share ~share:1.0 ()) () in
  let home = Container.create ~parent () in
  let members = Array.init 999 (fun _ -> Container.create ~parent ()) in
  let binding = Binding.create ~now:Simtime.zero home in
  Array.iter (fun c -> Binding.set_resource_binding binding ~now:Simtime.zero c) members;
  Binding.set_resource_binding binding ~now:Simtime.zero home;
  let k = ref 0 in
  Test.make ~name:"rebind+touch cycle, 1000-entry scheduler set"
    (Staged.stage (fun () ->
         k := (!k + 1) mod Array.length members;
         Binding.set_resource_binding binding ~now:Simtime.zero members.(!k);
         Binding.touch binding ~now:Simtime.zero;
         Binding.set_resource_binding binding ~now:Simtime.zero home;
         Binding.touch binding ~now:Simtime.zero))

let run_churn_microbench () =
  let early, late = churn_costs () in
  let few, many = sibling_costs () in
  let leaf_few, leaf_many = leaf_costs () in
  let binding = ols_estimates ~group:"binding" ~cfg:(sched_cfg ()) [ bench_rebind_touch () ] in
  let table =
    Engine.Series.table ~title:"Per-connection container churn: cost against history"
      ~columns:[ "workload"; "ns per op" ]
  in
  Engine.Series.add_row table [ "churn cycle after 1e3 prior cycles"; Printf.sprintf "%.0f" early ];
  Engine.Series.add_row table [ "churn cycle after 1e5 prior cycles"; Printf.sprintf "%.0f" late ];
  Engine.Series.add_row table
    [ "pick+charge, 1 busy leaf among 10 idle siblings"; Printf.sprintf "%.0f" few ];
  Engine.Series.add_row table
    [ "pick+charge, 1 busy leaf among 1000 idle siblings"; Printf.sprintf "%.0f" many ];
  Engine.Series.add_row table
    [ "create+destroy leaf beside 10 idle siblings"; Printf.sprintf "%.0f" leaf_few ];
  Engine.Series.add_row table
    [ "create+destroy leaf beside 1000 idle siblings"; Printf.sprintf "%.0f" leaf_many ];
  List.iter
    (fun (name, ns) ->
      Engine.Series.add_row table
        [ name; (match ns with Some v -> Printf.sprintf "%.0f" v | None -> "-") ])
    binding;
  Format.printf "%a@." Engine.Series.pp_table table

let run_smp_microbench () =
  let estimates = ols_estimates ~group:"smp" ~cfg:(sched_cfg ()) (smp_tests ()) in
  let table =
    Engine.Series.table
      ~title:"4-processor dispatch cost: shared run queue vs per-CPU shards"
      ~columns:[ "configuration"; "ns per round" ]
  in
  List.iter
    (fun (name, estimate) ->
      let estimate =
        match estimate with Some ns -> Printf.sprintf "%.0f" ns | None -> "-"
      in
      Engine.Series.add_row table [ name; estimate ])
    estimates;
  Format.printf "%a@." Engine.Series.pp_table table

let run_sched_microbench () =
  let estimates = ols_estimates ~group:"sched" ~cfg:(sched_cfg ()) (sched_tests ()) in
  let table =
    Engine.Series.table ~title:"Scheduler decision cost vs runnable containers"
      ~columns:[ "configuration"; "ns per pick+charge" ]
  in
  List.iter
    (fun (name, estimate) ->
      let estimate =
        match estimate with Some ns -> Printf.sprintf "%.0f" ns | None -> "-"
      in
      Engine.Series.add_row table [ name; estimate ])
    estimates;
  Format.printf "%a@." Engine.Series.pp_table table

(* {1 Part 1c: event-queue micro-benchmarks}

   Sim's event core, the hierarchical timer wheel, on the two patterns
   that bound it, so its O(1) schedule/cancel claim and its
   allocation-free firing path stay measured, not asserted.  The rows
   keep their ", wheel backend" names so older baselines still gate them.

   - churn: the TCP-timer pattern that motivated Varghese & Lauck — a
     standing population of 1024 pending long timers (retransmit/keepalive
     timers that almost always get cancelled), and per op: schedule 8
     events at pseudo-random near offsets, cancel half, fire the rest.
   - periodic: a long-lived [Sim.every] series (a scheduler quantum) on an
     otherwise empty queue; per op, advance the clock across 10 ticks.
     This is the wheel's worst case (sparse wheel, no bucket to share),
     and each tick re-arms the series' one node. *)

let bench_sim_churn () =
  let sim = Engine.Sim.create () in
  (* Standing far timers: pending throughout, never fired by the horizon
     below (the bench never simulates anywhere near an hour). *)
  for _ = 1 to 1024 do
    ignore (Engine.Sim.after sim (Simtime.sec 3600) ignore)
  done;
  let rng = ref 0x2545F49 in
  let next () =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !rng
  in
  Test.make
    ~name:"schedule/cancel churn over 1k pending, wheel backend"
    (Staged.stage (fun () ->
         let handles =
           Array.init 8 (fun _ -> Engine.Sim.after sim (Simtime.ns (1 + (next () land 0xFFFF))) ignore)
         in
         for i = 0 to 3 do
           ignore (Engine.Sim.cancel sim handles.(i * 2))
         done;
         Engine.Sim.run_until sim (Simtime.add (Engine.Sim.now sim) (Simtime.ns 0x10000))))

let bench_sim_periodic () =
  let sim = Engine.Sim.create () in
  let ticks = ref 0 in
  ignore (Engine.Sim.every sim (Simtime.us 10) (fun () -> incr ticks));
  Test.make
    ~name:"periodic timer x10 ticks, wheel backend"
    (Staged.stage (fun () ->
         Engine.Sim.run_until sim (Simtime.add (Engine.Sim.now sim) (Simtime.us 100))))

let sim_tests () = [ bench_sim_churn (); bench_sim_periodic () ]

let sim_cfg () = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ()

(* {1 Part 1d: packet-path micro-benchmarks}

   The per-SYN demultiplex against both implementations — the port-indexed
   specificity-sorted table on the packet path and the fold over every
   listen socket that serves as its executable specification — at 10 and
   100 listen sockets with overlapping filters, plus churn on the
   slot-indexed connection registry against the list representation it
   replaced.  These keep the O(1)-packet-path claims measured. *)

let make_demux_stack n =
  let sim = Engine.Sim.create () in
  let root = Container.create_root () in
  let policy = Sched.Timeshare.make () in
  let machine = Procsim.Machine.create ~sim ~policy:(fun () -> policy) ~root () in
  let proc = Procsim.Process.create machine ~name:"bench" () in
  let stack =
    Netsim.Stack.create ~machine ~mode:Netsim.Stack.Softirq
      ~owner:(Procsim.Process.default_container proc) ()
  in
  for i = 0 to n - 1 do
    (* Overlapping prefixes of several widths plus hosts and a catch-all,
       spread over two ports, so lookups exercise the specificity order
       and the tie-breaks rather than a single lucky first hit. *)
    let filter =
      match i mod 4 with
      | 0 -> Netsim.Filter.any
      | 1 -> Netsim.Filter.prefix ~template:(Netsim.Ipaddr.v 10 (i mod 8) 0 0) ~bits:16
      | 2 -> Netsim.Filter.prefix ~template:(Netsim.Ipaddr.v 10 (i mod 8) (i mod 32) 0) ~bits:24
      | _ -> Netsim.Filter.host (Netsim.Ipaddr.v 10 (i mod 8) (i mod 32) 7)
    in
    Netsim.Stack.add_listen stack
      (Netsim.Socket.make_unbound_listen ~port:(80 + (i mod 2)) ~filter (Container.run root))
  done;
  stack

let bench_demux ~listens ~table =
  let stack = make_demux_stack listens in
  let srcs = Array.init 64 (fun i -> Netsim.Ipaddr.v 10 (i mod 8) (i mod 32) 7) in
  let lookup =
    if table then Netsim.Stack.demux_lookup
    else
      let installed = Netsim.Stack.listens stack in
      fun _ ~port ~src -> Spec.Demux_ref.lookup installed ~port ~src
  in
  let k = ref 0 in
  Test.make
    ~name:(Printf.sprintf "syn demux, %d listens, %s" listens
             (if table then "port table" else "reference fold"))
    (Staged.stage (fun () ->
         k := (!k + 1) land 63;
         ignore (lookup stack ~port:80 ~src:srcs.(!k))))

let churn_conns () =
  Array.init 128 (fun i ->
      Netsim.Socket.make_conn ~id:(i + 1)
        ~src:(Netsim.Ipaddr.v 10 3 (i / 256) (i mod 256))
        ~src_port:0 ~client:Netsim.Socket.null_handlers ~now:Simtime.zero)

(* One close+accept at a standing population: untrack one connection and
   track it again. *)
let bench_conn_table_churn =
  let conns = churn_conns () in
  let t = Netsim.Conn_table.create () in
  Array.iter (fun c -> Netsim.Conn_table.add t c) conns;
  let k = ref 0 in
  Test.make ~name:"conn registry churn, 128 standing, slot table"
    (Staged.stage (fun () ->
         k := (!k + 1) land 127;
         ignore (Netsim.Conn_table.remove t conns.(!k));
         Netsim.Conn_table.add t conns.(!k)))

let bench_conn_list_churn =
  let conns = churn_conns () in
  let live = ref (Array.to_list conns) in
  let k = ref 0 in
  Test.make ~name:"conn registry churn, 128 standing, list reference"
    (Staged.stage (fun () ->
         k := (!k + 1) land 127;
         let c = conns.(!k) in
         live := c :: List.filter (fun c' -> c' != c) !live))

let netsim_tests () =
  [
    bench_demux ~listens:10 ~table:true;
    bench_demux ~listens:10 ~table:false;
    bench_demux ~listens:100 ~table:true;
    bench_demux ~listens:100 ~table:false;
    bench_conn_table_churn;
    bench_conn_list_churn;
  ]

let run_netsim_microbench () =
  let estimates = ols_estimates2 ~group:"netsim" ~cfg:(sim_cfg ()) (netsim_tests ()) in
  let table =
    Engine.Series.table ~title:"Packet-path cost: demux table and connection registry"
      ~columns:[ "workload"; "ns per op"; "minor words per op" ]
  in
  List.iter
    (fun (name, ns, mw) ->
      let fmt = function Some v -> Printf.sprintf "%.0f" v | None -> "-" in
      Engine.Series.add_row table [ name; fmt ns; fmt mw ])
    estimates;
  Format.printf "%a@." Engine.Series.pp_table table

let run_sim_microbench () =
  let estimates = ols_estimates2 ~group:"sim" ~cfg:(sim_cfg ()) (sim_tests ()) in
  let table =
    Engine.Series.table ~title:"Event-queue cost: the hierarchical timer wheel"
      ~columns:[ "workload"; "ns per op"; "minor words per op" ]
  in
  List.iter
    (fun (name, ns, mw) ->
      let fmt = function Some v -> Printf.sprintf "%.0f" v | None -> "-" in
      Engine.Series.add_row table [ name; fmt ns; fmt mw ])
    estimates;
  Format.printf "%a@." Engine.Series.pp_table table

(* {1 Part 1e: file-cache churn and popularity-sampling micro-benchmarks}

   The million-document file layer's two O(1) claims, kept measured:

   - churn: a standing cache holding ~1/8 of the corpus bytes; per op, one
     lookup of a pseudo-random document drawn uniformly over the corpus,
     so most lookups miss, load and evict.  The arena pays a doc-table
     probe plus a few int-array writes regardless of population — the
     1e6-doc point must cost about the same as the 1e3-doc one (the
     flatness ratio emitted with --json) — where the reference
     implementation's eviction folds over every registered document.
   - zipf sampling: one popularity draw over 1e6 ranks, alias method vs
     the CDF-inversion executable spec (O(1) vs O(log n)). *)

let cache_doc_bytes i = 1024 * (1 + (i land 7))

let cache_corpus_bytes docs =
  let total = ref 0 in
  for i = 0 to docs - 1 do
    total := !total + cache_doc_bytes i
  done;
  !total

(* Pseudo-random doc-index sequence shared by both implementations — the
   same LCG, the same wrap — so the hit/miss mix is identical. *)
let cache_sequence docs =
  let rng = ref 0x2545F49 in
  Array.init 4096 (fun _ ->
      rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
      !rng mod docs)

let bench_cache_churn_arena docs =
  let cache =
    Httpsim.File_cache.create ~capacity_bytes:(max 4096 (cache_corpus_bytes docs / 8)) ()
  in
  let ids =
    Array.init docs (fun i -> Httpsim.Docset.intern (Printf.sprintf "/bench/%d/%d" docs i))
  in
  Array.iteri
    (fun i id -> Httpsim.File_cache.add_doc cache ~doc:id ~bytes:(cache_doc_bytes i))
    ids;
  Httpsim.File_cache.warm cache;
  let seq = Array.map (fun i -> ids.(i)) (cache_sequence docs) in
  let k = ref 0 in
  Test.make
    ~name:(Printf.sprintf "lookup churn, arena, %d docs" docs)
    (Staged.stage (fun () ->
         k := (!k + 1) land 4095;
         ignore (Httpsim.File_cache.lookup_doc cache ~doc:(Array.unsafe_get seq !k))))

let bench_cache_churn_ref docs =
  let cache =
    Spec.File_cache_ref.create ~capacity_bytes:(max 4096 (cache_corpus_bytes docs / 8)) ()
  in
  let paths = Array.init docs (fun i -> Printf.sprintf "/bench-ref/%d/%d" docs i) in
  Array.iteri
    (fun i path -> Spec.File_cache_ref.add_document cache ~path ~bytes:(cache_doc_bytes i))
    paths;
  Spec.File_cache_ref.warm cache;
  let seq = Array.map (fun i -> paths.(i)) (cache_sequence docs) in
  let k = ref 0 in
  Test.make
    ~name:(Printf.sprintf "lookup churn, reference, %d docs" docs)
    (Staged.stage (fun () ->
         k := (!k + 1) land 4095;
         ignore (Spec.File_cache_ref.lookup cache ~path:(Array.unsafe_get seq !k))))

let cache_tests () =
  [
    bench_cache_churn_arena 1_000;
    bench_cache_churn_arena 1_000_000;
    bench_cache_churn_ref 1_000;
    bench_cache_churn_ref 10_000;
  ]

(* [cache.bytes-consistency] sweeps over caches holding 10^4 resident
   documents out of 10^4 and out of 10^6 registered, hand-timed.  [warm]
   leaves the registration tail resident, so both walk the same 10^4-node
   list over the same kind of memory and differ only in what the law must
   do about the registered-but-uncached slots.  Doc ids need not be
   interned for [add_doc], so the 10^6 cache adds nothing to the global
   docset.  Batches of 50 sweeps alternate between the two caches, so
   both medians (of 9 batches each) see the same host phases. *)
let law_registry docs =
  let resident = 10_000 in
  let cache = Httpsim.File_cache.create ~capacity_bytes:(resident * 1024) () in
  for doc = 0 to docs - 1 do
    Httpsim.File_cache.add_doc cache ~doc ~bytes:1024
  done;
  Httpsim.File_cache.warm cache;
  let registry = Engine.Invariant.create () in
  Httpsim.File_cache.register_invariants cache registry;
  registry

let law_sweep_costs () =
  let sweep registry () =
    if Engine.Invariant.check registry <> [] then failwith "cache law violated in bench"
  in
  let small = law_registry 10_000 and large = law_registry 1_000_000 in
  alternating_medians ~calls:50 (sweep small) (sweep large)

let bench_zipf_sample ~alias =
  let n = 1_000_000 in
  let d = if alias then Engine.Dist.zipf ~n ~s:0.9 else Engine.Dist.zipf_cdf ~n ~s:0.9 in
  let rng = Engine.Rng.create ~seed:42 in
  Test.make
    ~name:
      (Printf.sprintf "zipf sample, %s, 1e6 ranks"
         (if alias then "alias method" else "cdf reference"))
    (Staged.stage (fun () -> ignore (Engine.Dist.sample_index d rng)))

let dist_tests () = [ bench_zipf_sample ~alias:true; bench_zipf_sample ~alias:false ]

(* The cache and dist groups run over 10^6 interned paths and 10^6-entry
   tables.  Bechamel's default [~stabilize:true] runs a [Gc.compact] loop
   before every sample and counts it against the quota; over that heap
   one loop can outlast the quota and leave a test a single sample of
   one cold call, clock reads included (5.8 us for a ~50 ns arena lookup,
   38 minor words for a 26-word reference lookup).  Minor-word counts do
   not depend on the GC state, and the OLS fit over hundreds of samples
   absorbs the major slices that land inside some of them. *)
let big_heap_cfg quota = Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~stabilize:false ()

let run_cache_microbench () =
  let estimates =
    ols_estimates2 ~group:"cache" ~cfg:(big_heap_cfg 0.25) (cache_tests ())
    @ ols_estimates2 ~group:"dist" ~cfg:(big_heap_cfg 0.25) (dist_tests ())
  in
  let table =
    Engine.Series.table
      ~title:"File-cache churn (arena vs reference) and Zipf sampling (alias vs CDF)"
      ~columns:[ "workload"; "ns per op"; "minor words per op" ]
  in
  List.iter
    (fun (name, ns, mw) ->
      let fmt = function Some v -> Printf.sprintf "%.0f" v | None -> "-" in
      Engine.Series.add_row table [ name; fmt ns; fmt mw ])
    estimates;
  Format.printf "%a@." Engine.Series.pp_table table

(* {1 Machine-readable output (--json)}

   Emits the fast-path metrics — Table-1 primitive costs, the scheduler
   pick+charge sweep and the wall-clock cost of a Figure-11-style run —
   as one JSON document on stdout:

     { "schema_version": 1, "label": "...",
       "metrics": [ {"name", "unit", "value", "better"}, ... ] }

   All metrics are "better": "lower".  [bench/compare.ml] diffs two such
   documents and fails on regressions; BENCH_PR1.json in the repo root is
   the committed baseline. *)

type metric = { m_name : string; m_unit : string; m_value : float }

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let emit_json ~label metrics =
  Printf.printf "{\n  \"schema_version\": 1,\n  \"label\": \"%s\",\n  \"metrics\": [\n"
    (json_escape label);
  let last = List.length metrics - 1 in
  List.iteri
    (fun i m ->
      Printf.printf
        "    {\"name\": \"%s\", \"unit\": \"%s\", \"value\": %.6g, \"better\": \"lower\"}%s\n"
        (json_escape m.m_name) (json_escape m.m_unit) m.m_value
        (if i = last then "" else ","))
    metrics;
  print_string "  ]\n}\n"

(* [--smoke] shrinks every quota and measurement window to the minimum
   that still exercises the code: CI runs it on every push so the bench
   harness cannot rot between baseline regenerations.  Smoke numbers are
   far too noisy to gate on. *)
let run_json ~fast ~smoke ~mega ~label =
  let scale cfg_quota =
    if smoke then cfg_quota /. 20. else if fast then cfg_quota /. 2. else cfg_quota
  in
  let t1 =
    ols_estimates ~group:"table1"
      ~cfg:(Benchmark.cfg ~limit:2000 ~quota:(Time.second (scale 0.5)) ())
      (table1_tests ())
  in
  let sched =
    ols_estimates ~group:"sched"
      ~cfg:(Benchmark.cfg ~limit:1000 ~quota:(Time.second (scale 0.25)) ())
      (sched_tests ())
  in
  let churn_early, churn_late = churn_costs () in
  let siblings_few, siblings_many = sibling_costs () in
  let leaf_few, leaf_many = leaf_costs () in
  let binding =
    ols_estimates2 ~group:"binding"
      ~cfg:(Benchmark.cfg ~limit:1000 ~quota:(Time.second (scale 0.25)) ())
      [ bench_rebind_touch () ]
  in
  let smp =
    ols_estimates ~group:"smp"
      ~cfg:(Benchmark.cfg ~limit:1000 ~quota:(Time.second (scale 0.25)) ())
      (smp_tests ())
  in
  let sim =
    ols_estimates2 ~group:"sim"
      ~cfg:(Benchmark.cfg ~limit:1000 ~quota:(Time.second (scale 0.25)) ())
      (sim_tests ())
  in
  let netsim =
    ols_estimates2 ~group:"netsim"
      ~cfg:(Benchmark.cfg ~limit:1000 ~quota:(Time.second (scale 0.25)) ())
      (netsim_tests ())
  in
  (* End-to-end cost: host seconds needed to simulate one second of the
     Figure-11 rig (event API, 1 high + 20 low clients).  Normalising by
     simulated time keeps fast and full runs comparable. *)
  let warmup = if smoke then Simtime.ms 100 else if fast then Simtime.ms 500 else Simtime.sec 1 in
  let measure = if smoke then Simtime.ms 200 else if fast then Simtime.sec 1 else Simtime.sec 2 in
  let sim_seconds = Simtime.span_to_sec_f warmup +. Simtime.span_to_sec_f measure in
  let fig11_wall =
    let t0 = Unix.gettimeofday () in
    ignore
      (Experiments.Exp_fig11.t_high
         {
           (Experiments.Exp_fig11.scenario Experiments.Exp_fig11.Containers_event_api
              ~low_clients:20)
           with
           warmup;
           windows = [ measure ];
         });
    (Unix.gettimeofday () -. t0) /. sim_seconds
  in
  (* End-to-end cost and GC pressure of each stack mode: one 16-client
     closed-loop run per mode; allocation is normalised per completed
     request so fast and full windows stay comparable. *)
  let mode_metrics =
    List.concat_map
      (fun system ->
        let mode = Experiments.Harness.system_name system in
        let words0 = Gc.minor_words () in
        let t0 = Unix.gettimeofday () in
        let r =
          Experiments.Exp_sweep.run
            {
              (Experiments.Exp_sweep.scenario
                 { Experiments.Exp_sweep.system; clients = 16; seed = 1 })
              with
              warmup;
              windows = [ measure ];
            }
        in
        let wall = Unix.gettimeofday () -. t0 in
        let words = Gc.minor_words () -. words0 in
        let per_req = if r.Experiments.Exp_sweep.completed > 0 then
            words /. float_of_int r.Experiments.Exp_sweep.completed
          else words
        in
        [
          {
            m_name = Printf.sprintf "endtoend/wall-clock per simulated second, %s mode, 16 clients" mode;
            m_unit = "s/simsec";
            m_value = wall /. sim_seconds;
          };
          {
            m_name = Printf.sprintf "gc.minor_words_per_op/endtoend %s mode, per completed request" mode;
            m_unit = "mw/op";
            m_value = per_req;
          };
        ])
      [ Experiments.Harness.Unmodified; Experiments.Harness.Lrp_sys; Experiments.Harness.Rc_sys ]
  in
  (* The same end-to-end rig on a 4-processor machine with per-CPU
     run-queue shards and RSS interrupt steering. *)
  let smp_endtoend =
    let t0 = Unix.gettimeofday () in
    ignore
      (Experiments.Exp_sweep.run
         {
           (Experiments.Exp_sweep.scenario
              { Experiments.Exp_sweep.system = Experiments.Harness.Rc_sys; clients = 16; seed = 1 })
           with
           cpus = 4;
           warmup;
           windows = [ measure ];
         });
    (Unix.gettimeofday () -. t0) /. sim_seconds
  in
  (* The cluster rig end to end: 4 machines x 4 CPUs behind the flow-hash
     balancer, open-loop Poisson arrivals.  Wall time per simulated second
     plus allocation per completed request (the arrival path is meant to
     be allocation-free, so this also watches the injection fast path). *)
  let cluster_wall, cluster_mw =
    let module Cluster = Clustersim.Cluster in
    let c =
      Cluster.create ~machines:4 ~cpus:4 ~policy:Cluster.Flow_hash
        ~profile:(Cluster.Poisson 2_000.) ~seed:1 ()
    in
    Cluster.start c;
    let words0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    Cluster.run_for c (Simtime.span_add warmup measure);
    let wall = Unix.gettimeofday () -. t0 in
    let words = Gc.minor_words () -. words0 in
    let completed = Cluster.completed c in
    ( wall /. sim_seconds,
      if completed > 0 then words /. float_of_int completed else words )
  in
  (* Sharded execution: one 16-machine cluster at shards=1 vs shards=8.
     The windowed mailbox protocol is the only execution path, so both
     runs compute byte-identical results; the pair measures what sharding
     costs (barriers, mailboxes) and what it buys (domains).  On a
     multicore host the ratio approaches the core count; on a single core
     the domain cap makes shards=8 run sequentially and the ratio ~1 —
     the honest number either way. *)
  let shard_wall shards =
    let module Cluster = Clustersim.Cluster in
    let c =
      Cluster.create ~machines:16 ~shards ~policy:Cluster.Flow_hash
        ~profile:(Cluster.Poisson 8_000.) ~seed:1 ()
    in
    Cluster.start c;
    let t0 = Unix.gettimeofday () in
    Cluster.run_for c (Simtime.span_add warmup measure);
    (Unix.gettimeofday () -. t0) /. sim_seconds
  in
  let shard1_wall = shard_wall 1 in
  let shard8_wall = shard_wall 8 in
  (* Sweep throughput: the same 9-point grid serially and fanned across 4
     domains.  On a multicore host jobs=4 divides the wall time; on a
     single core it only adds domain overhead — both are worth knowing.
     The jobs=1 row runs after shards=8 has spawned the domain pool's
     workers, so it also carries whatever parked workers cost a busy
     domain. *)
  let sweep_metrics =
    let s_warmup = if smoke then Simtime.ms 100 else Simtime.ms 500 in
    let s_measure =
      if smoke then Simtime.ms 100 else if fast then Simtime.ms 500 else Simtime.sec 1
    in
    let scenarios =
      Array.map
        (fun p ->
          { (Experiments.Exp_sweep.scenario p) with warmup = s_warmup; windows = [ s_measure ] })
        (Experiments.Exp_sweep.grid ~client_counts:[ 4 ] ~seeds:[ 1; 2; 3 ])
    in
    let time_with jobs =
      let t0 = Unix.gettimeofday () in
      ignore (Experiments.Harness.Sweep.map ~jobs Experiments.Exp_sweep.run scenarios);
      Unix.gettimeofday () -. t0
    in
    [
      { m_name = "sweep/wall-clock, 9-point grid, jobs=1"; m_unit = "s"; m_value = time_with 1 };
      { m_name = "sweep/wall-clock, 9-point grid, jobs=4"; m_unit = "s"; m_value = time_with 4 };
    ]
  in
  (* The million-document stages run LAST: interning 1e6 paths leaves the
     global docset (and the per-doc response memos) live in the major heap
     for the rest of the process, which measurably inflates the GC cost of
     every later in-process stage — a 19x swing on the jobs=1 sweep when
     these ran first, with a heap block per interned path.  With 1e6
     interned paths live and nothing else, that sweep now reads 1.29x its
     time without them (1.49x with the per-path table; medians of 15
     fresh processes each on a 2-vCPU VM).  Ordering them after
     everything gated against older baselines keeps those metrics
     comparable. *)
  let cache =
    ols_estimates2 ~group:"cache" ~cfg:(big_heap_cfg (scale 0.25)) (cache_tests ())
  in
  let dist =
    ols_estimates2 ~group:"dist" ~cfg:(big_heap_cfg (scale 0.25)) (dist_tests ())
  in
  (* The headline O(1) claim as one gate-able number: arena churn ns/op at
     1e6 docs over 1e3 docs.  1.0 = perfectly flat; the reference
     implementation's same ratio would be ~1000. *)
  let estimate_named name rows =
    List.find_map (fun (n, ns, _) -> if String.equal n name then ns else None) rows
  in
  let cache_flatness =
    match
      ( estimate_named "cache/lookup churn, arena, 1000 docs" cache,
        estimate_named "cache/lookup churn, arena, 1000000 docs" cache )
    with
    | Some small, Some large when small > 0. ->
        [
          {
            m_name = "cache.flatness/arena churn ns at 1e6 docs over 1e3";
            m_unit = "x";
            m_value = large /. small;
          };
        ]
    | _ -> []
  in
  (* The Zipf flash-crowd rig end to end: a 2e4-document corpus (2e3 under
     --smoke) on the RC system at s = 0.9, cold-start warmup, steady and
     flash-crowd phases, invariants armed — the cache/alias/doc-id path as
     the server actually drives it. *)
  let zipf_endtoend =
    let z_warmup = if smoke then Simtime.ms 50 else Simtime.ms 250 in
    let z_measure = if smoke then Simtime.ms 100 else Simtime.ms 500 in
    let z_docs = if smoke then 2_000 else 20_000 in
    let t0 = Unix.gettimeofday () in
    ignore
      (Experiments.Exp_zipf.run
         {
           (Experiments.Exp_zipf.scenario ~docs:z_docs ~s:0.9 Experiments.Harness.Rc_sys) with
           warmup = z_warmup;
           windows = [ z_measure; z_measure ];
         });
    (Unix.gettimeofday () -. t0)
    /. (Simtime.span_to_sec_f z_warmup +. (2. *. Simtime.span_to_sec_f z_measure))
  in
  (* The armed law's cost must track the resident set, not the corpus:
     one sweep at 1e6 registered over one at 1e4, 1e4 resident in both.
     A law that scans every registered slot reads ~30 here.  Measured
     after the Zipf rig: its 10^6-slot cache leaves ~50 MB of dead major
     heap that slowed the rig's run ~1.5x when it ran first. *)
  let law_small, law_large = law_sweep_costs () in
  let law_flatness =
    [
      {
        m_name = "cache/law sweep, 1e4 resident of 1e4 registered";
        m_unit = "ns/op";
        m_value = law_small;
      };
      {
        m_name = "cache/law sweep, 1e4 resident of 1e6 registered";
        m_unit = "ns/op";
        m_value = law_large;
      };
      {
        m_name = "cache.law-flatness/law sweep ns at 1e6 registered over 1e4 (1e4 resident)";
        m_unit = "x";
        m_value = law_large /. law_small;
      };
    ]
  in
  let metrics =
    List.filter_map
      (fun (name, estimate) ->
        Option.map (fun v -> { m_name = name; m_unit = "ns/op"; m_value = v }) estimate)
      (t1 @ sched @ smp)
    @ List.filter_map
        (fun (name, ns, _) ->
          Option.map (fun v -> { m_name = name; m_unit = "ns/op"; m_value = v }) ns)
        (binding @ sim @ netsim @ cache @ dist)
    @ List.filter_map
        (fun (name, _, mw) ->
          Option.map
            (fun v -> { m_name = "gc.minor_words_per_op/" ^ name; m_unit = "mw/op"; m_value = v })
            mw)
        (binding @ sim @ netsim @ cache @ dist)
    @ [
        {
          m_name = "sched/container churn cycle after 1e3 prior cycles";
          m_unit = "ns/op";
          m_value = churn_early;
        };
        {
          m_name = "sched/container churn cycle after 1e5 prior cycles";
          m_unit = "ns/op";
          m_value = churn_late;
        };
        {
          (* The per-connection-container claim as one gate-able number:
             1.0 = flat in history.  A run queue that re-walks every
             container ever queued reads ~13 already at 1e4 prior cycles. *)
          m_name = "sched.churn-flatness/container churn ns after 1e5 prior cycles over 1e3";
          m_unit = "x";
          m_value = churn_late /. churn_early;
        };
        {
          m_name = "sched/multilevel pick+charge, 1 busy leaf among 10 idle siblings";
          m_unit = "ns/op";
          m_value = siblings_few;
        };
        {
          m_name = "sched/multilevel pick+charge, 1 busy leaf among 1000 idle siblings";
          m_unit = "ns/op";
          m_value = siblings_many;
        };
        {
          (* The per-connection-container pick claim as one gate-able
             number: 1.0 = flat in idle siblings. *)
          m_name = "sched.sibling-flatness/pick+charge ns among 1000 idle siblings over 10";
          m_unit = "x";
          m_value = siblings_many /. siblings_few;
        };
        {
          m_name = "rescont/create+destroy leaf beside 10 idle siblings";
          m_unit = "ns/op";
          m_value = leaf_few;
        };
        {
          m_name = "rescont/create+destroy leaf beside 1000 idle siblings";
          m_unit = "ns/op";
          m_value = leaf_many;
        };
        {
          (* The per-connection-container lifetime claim as one gate-able
             number: 1.0 = flat in idle siblings. *)
          m_name = "rescont.sibling-flatness/create+destroy ns beside 1000 idle siblings over 10";
          m_unit = "x";
          m_value = leaf_many /. leaf_few;
        };
      ]
    @ cache_flatness
    @ law_flatness
    @ [
        {
          m_name = "fig11/wall-clock per simulated second, event api, 20 low clients";
          m_unit = "s/simsec";
          m_value = fig11_wall;
        };
      ]
    @ mode_metrics
    @ [
        {
          m_name = "endtoend/wall-clock per simulated second, rc mode, 16 clients, 4 cpus";
          m_unit = "s/simsec";
          m_value = smp_endtoend;
        };
        {
          m_name =
            "endtoend/wall-clock per simulated second, cluster, 4 machines x 4 cpus, flow-hash";
          m_unit = "s/simsec";
          m_value = cluster_wall;
        };
        {
          m_name = "gc.minor_words_per_op/endtoend cluster, per completed request";
          m_unit = "mw/op";
          m_value = cluster_mw;
        };
        {
          m_name =
            "endtoend/wall-clock per simulated second, cluster, 16 machines, shards=1";
          m_unit = "s/simsec";
          m_value = shard1_wall;
        };
        {
          m_name =
            "endtoend/wall-clock per simulated second, cluster, 16 machines, shards=8";
          m_unit = "s/simsec";
          m_value = shard8_wall;
        };
        {
          m_name = "endtoend/wall-clock per simulated second, zipf flash-crowd rig, rc mode";
          m_unit = "s/simsec";
          m_value = zipf_endtoend;
        };
        {
          (* shards=8 wall over shards=1 wall: 1.0 = parity, below 1 =
             sharded speedup (0.33 would be the 3x multicore target),
             above 1 = protocol overhead.  Expressed as a cost ratio so
             the compare tool's larger-is-worse convention applies. *)
          m_name = "cluster.shard-overhead/16 machines, shards=8 wall over shards=1";
          m_unit = "x";
          m_value = shard8_wall /. shard1_wall;
        };
      ]
    @ sweep_metrics
    @
    if not mega then []
    else begin
      (* The 10^6-concurrent-connection run: minutes of wall clock, opt-in
         via --mega.  Sizes are fixed (never shrunk by --fast/--smoke) so
         the metric means the same thing in every report that carries it. *)
      let module C = Experiments.Exp_cluster in
      let t0 = Unix.gettimeofday () in
      let p = C.mega_point () in
      let wall = Unix.gettimeofday () -. t0 in
      [
        {
          m_name =
            Printf.sprintf
              "megaconn/peak concurrent connections, %d machines, shards=%d"
              p.C.mp_machines p.C.mp_shards;
          m_unit = "conns";
          m_value = float_of_int p.C.mp_peak_concurrent;
        };
        {
          m_name = "megaconn/wall-clock per simulated second";
          m_unit = "s/simsec";
          m_value = wall /. p.C.mp_sim_seconds;
        };
        {
          m_name = "megaconn/completed requests in the 6 s measure window";
          m_unit = "req";
          m_value = float_of_int p.C.mp_completed;
        };
      ]
    end
  in
  emit_json ~label metrics

let () =
  let fast = Array.exists (String.equal "--fast") Sys.argv in
  let smoke = Array.exists (String.equal "--smoke") Sys.argv in
  let mega = Array.exists (String.equal "--mega") Sys.argv in
  let opt_value name =
    let result = ref None in
    Array.iteri
      (fun i arg ->
        if arg = name && i + 1 < Array.length Sys.argv then result := Some Sys.argv.(i + 1))
      Sys.argv;
    !result
  in
  let trace_out = opt_value "--trace-out" in
  let metrics_out = opt_value "--metrics-out" in
  if trace_out <> None || metrics_out <> None then Experiments.Harness.observe ();
  (if Array.exists (String.equal "--json") Sys.argv then begin
     let label =
       match opt_value "--label" with Some label -> label | None -> "current"
     in
     run_json ~fast ~smoke ~mega ~label
   end
   else begin
     Format.printf "=== Primitive costs (real wall clock, Bechamel OLS) ===@.";
     run_table1_microbench ();
     run_sched_microbench ();
     run_churn_microbench ();
     run_smp_microbench ();
     run_sim_microbench ();
     run_netsim_microbench ();
     run_cache_microbench ()
   end);
  match Experiments.Harness.last_rig () with
  | Some rig -> Experiments.Harness.export ?trace_out ?metrics_out rig
  | None -> ()
