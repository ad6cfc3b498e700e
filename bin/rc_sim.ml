(* rc_sim — command-line driver for the Resource Containers reproduction.

   One subcommand per reproduced table/figure, plus [all].  The [--fast]
   flag shrinks sweeps and windows for quick runs; [--csv] emits
   machine-readable output for figures. *)

open Cmdliner
module Simtime = Engine.Simtime

let chart_mode = ref false

let print_figure ~csv fig =
  if csv then print_string (Engine.Series.figure_to_csv fig)
  else if !chart_mode then Format.printf "%a@." Engine.Series.pp_figure_chart fig
  else Format.printf "%a@." Engine.Series.pp_figure fig

let print_table ~csv table =
  if csv then print_string (Engine.Series.table_to_csv table)
  else Format.printf "%a@." Engine.Series.pp_table table

let fast_flag =
  let doc = "Shrink sweeps and measurement windows for a quick run." in
  Arg.(value & flag & info [ "fast" ] ~doc)

let csv_flag =
  let doc = "Emit CSV instead of aligned tables." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let chart_flag =
  let doc = "Render figures as ASCII bar charts." in
  Arg.(value & flag & info [ "chart" ] ~doc)

let jobs_flag =
  let doc =
    "Fan independent experiment points across $(docv) domains (0 = one per \
     recommended core).  Results are identical for any value."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~doc ~docv:"N")

let resolve_jobs jobs =
  if jobs = 0 then Experiments.Harness.Sweep.recommended_jobs () else max 1 jobs

let trace_out_flag =
  let doc = "Write the run's kernel trace as JSON lines to $(docv)." in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~doc ~docv:"FILE")

let metrics_out_flag =
  let doc = "Write an end-of-run metrics snapshot as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~doc ~docv:"FILE")

let run_baseline _jobs fast csv =
  let measure = if fast then Simtime.sec 2 else Simtime.sec 5 in
  print_table ~csv (Experiments.Exp_baseline.table ~measure ())

let run_table1 _jobs _fast csv = print_table ~csv (Experiments.Exp_table1.table ())

let run_fig11 jobs fast csv =
  let low_counts = if fast then [ 0; 10; 20; 35 ] else [ 0; 5; 10; 15; 20; 25; 30; 35 ] in
  let measure = if fast then Simtime.sec 3 else Simtime.sec 5 in
  print_figure ~csv (Experiments.Exp_fig11.figure ~low_counts ~measure ~jobs ())

let fig12_13 jobs fast =
  let cgi_counts = if fast then [ 0; 2; 4 ] else [ 0; 1; 2; 3; 4; 5 ] in
  let measure = if fast then Simtime.sec 10 else Simtime.sec 15 in
  Experiments.Exp_fig12_13.figures ~cgi_counts ~measure ~jobs ()

let run_fig12 jobs fast csv = print_figure ~csv (fst (fig12_13 jobs fast))
let run_fig13 jobs fast csv = print_figure ~csv (snd (fig12_13 jobs fast))

let run_fig14 jobs fast csv =
  let rates =
    if fast then [ 0.; 10_000.; 40_000.; 70_000. ]
    else [ 0.; 5_000.; 10_000.; 20_000.; 30_000.; 40_000.; 50_000.; 60_000.; 70_000. ]
  in
  let measure = if fast then Simtime.sec 3 else Simtime.sec 5 in
  print_figure ~csv (Experiments.Exp_fig14.figure ~rates ~measure ~jobs ())

let run_virtual _jobs _fast csv = print_table ~csv (Experiments.Exp_virtual.table ())
let run_overhead _jobs _fast csv = print_table ~csv (Experiments.Exp_overhead.table ())

let run_disk _jobs fast csv =
  print_table ~csv (Experiments.Exp_disk.architecture_table ());
  print_table ~csv
    (Experiments.Exp_disk.pool_table
       ?workers_list:(if fast then Some [ 1; 4; 16 ] else None)
       ());
  print_table ~csv (Experiments.Exp_disk.isolation_table ())

let run_latency jobs fast csv =
  let client_counts = if fast then [ 1; 4; 16; 64 ] else [ 1; 2; 4; 8; 16; 32; 64 ] in
  let measure = if fast then Simtime.sec 2 else Simtime.sec 4 in
  print_figure ~csv
    (Experiments.Exp_latency.figure ~client_counts ~measure ~jobs Experiments.Harness.Unmodified)

(* A small traced scenario: two client classes on the RC kernel, tracing
   enabled; prints the tail of the kernel trace. *)
let run_trace _jobs _fast _csv =
  let module Container = Rescont.Container in
  let module Machine = Procsim.Machine in
  let module Harness = Experiments.Harness in
  if not (Harness.observing ()) then Harness.observe ~capacity:64 ();
  let rig = Harness.make_rig Harness.Rc_sys in
  let machine = rig.Harness.machine in
  let stack = rig.Harness.stack in
  let hi =
    Container.create ~parent:rig.Harness.root ~name:"premium"
      ~attrs:(Rescont.Attrs.timeshare ~priority:90 ())
      ()
  in
  let listens =
    [
      Netsim.Socket.make_listen ~port:80 ~filter:(Netsim.Filter.host (Netsim.Ipaddr.v 10 9 9 9))
        ~container:hi ();
      Netsim.Socket.make_unbound_listen ~port:80 (Rescont.Container.run rig.Harness.root);
    ]
  in
  let server =
    Httpsim.Event_server.create ~stack ~process:rig.Harness.server_proc ~cache:rig.Harness.cache
      ~policy:Httpsim.Event_server.Inherit_listen ~listens ()
  in
  ignore (Httpsim.Event_server.start server);
  let clients =
    Workload.Sclient.create ~stack ~port:80 ~path:"/doc/1k" ~count:2 ()
  in
  let vip =
    Workload.Sclient.create ~stack ~name:"vip" ~src_base:(Netsim.Ipaddr.v 10 9 9 9) ~port:80
      ~path:"/doc/1k" ~count:1 ()
  in
  Workload.Sclient.start clients;
  Workload.Sclient.start vip;
  Machine.run_until machine (Engine.Simtime.add Engine.Simtime.zero (Engine.Simtime.ms 10));
  Format.printf "Kernel trace of the first 10 simulated milliseconds (most recent events):@.";
  List.iter
    (fun e -> Format.printf "  %a@." Engine.Tracelog.pp_entry e)
    (Engine.Tracelog.entries (Machine.trace machine))

let run_smp _jobs fast csv =
  let warmup = if fast then Simtime.ms 500 else Simtime.sec 1 in
  let measure = if fast then Simtime.sec 1 else Simtime.sec 4 in
  print_table ~csv (Experiments.Exp_smp.livelock_table ~warmup ~measure ());
  print_table ~csv
    (Experiments.Exp_smp.hot_table
       ~measure:(if fast then Simtime.sec 1 else Simtime.sec 2)
       ())

let run_ablation _jobs fast csv =
  let measure = if fast then Simtime.sec 3 else Simtime.sec 10 in
  print_table ~csv (Experiments.Exp_ablation.scheduler_family_table ~measure ());
  print_table ~csv (Experiments.Exp_ablation.binding_prune_table ());
  print_table ~csv (Experiments.Exp_ablation.quantum_table ());
  print_table ~csv (Experiments.Exp_ablation.smp_scaling_table ());
  print_table ~csv (Experiments.Exp_ablation.softirq_charging_table ())

let run_all jobs fast csv =
  run_baseline jobs fast csv;
  run_table1 jobs fast csv;
  run_fig11 jobs fast csv;
  let f12, f13 = fig12_13 jobs fast in
  print_figure ~csv f12;
  print_figure ~csv f13;
  run_fig14 jobs fast csv;
  run_virtual jobs fast csv;
  run_overhead jobs fast csv;
  run_disk jobs fast csv;
  run_latency jobs fast csv;
  run_ablation jobs fast csv

(* The sweep experiment: the CLI face of the parallel executor.  The JSON
   report is byte-identical for every --jobs value. *)
let run_sweep jobs fast json_out =
  let jobs = resolve_jobs jobs in
  let points =
    if fast then Experiments.Exp_sweep.grid ~client_counts:[ 4 ] ~seeds:[ 1 ] ()
    else Experiments.Exp_sweep.grid ()
  in
  let warmup = if fast then Simtime.ms 500 else Simtime.sec 1 in
  let measure = if fast then Simtime.sec 1 else Simtime.sec 2 in
  let results = Experiments.Exp_sweep.run_grid ~warmup ~measure ~jobs points in
  let doc = Experiments.Exp_sweep.report_string results in
  match json_out with
  | Some path ->
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc doc);
      Format.printf "sweep: %d point(s), %d job(s), report written to %s@."
        (Array.length points) jobs path
  | None -> print_string doc

(* Cluster scale-out: the multi-machine balancer rig, gated against the
   M/G/1-PS closed form.  --check runs the 10^5-concurrent-connection gate
   configuration and fails the command if the oracle error exceeds 5%. *)
let run_cluster fast csv check machines shards json_out =
  let module C = Experiments.Exp_cluster in
  let machines =
    match machines with Some m -> m | None -> if fast then 2 else 4
  in
  if shards < 1 then begin
    Format.eprintf "cluster: --shards must be >= 1@.";
    Stdlib.exit 2
  end;
  let rhos = if fast then [ 0.3; 0.6 ] else [ 0.3; 0.5; 0.7 ] in
  let warmup = if fast then Simtime.ms 500 else Simtime.sec 2 in
  let measure = if fast then Simtime.sec 2 else Simtime.sec 6 in
  let curve = C.oracle_curve ~machines ~shards ~rhos ~warmup ~measure () in
  print_table ~csv (C.oracle_table curve);
  let gate =
    if check then begin
      let g = C.gate_point ~shards () in
      Format.printf
        "gate: %d machines, %d peak concurrent conns, measured %.3f ms vs predicted \
         %.3f ms (err %.1f%%)@."
        g.C.op_machines g.C.op_concurrent g.C.op_measured_ms g.C.op_predicted_ms
        g.C.op_err_pct;
      Some g
    end
    else None
  in
  (match json_out with
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Engine.Jsonx.to_string (C.oracle_json ?gate curve)));
      Format.printf "cluster: oracle points written to %s@." path
  | None -> ());
  let clone_measure = if fast then Simtime.sec 2 else Simtime.sec 4 in
  print_table ~csv (C.clone_table (C.clone_pair ~measure:clone_measure ()));
  print_table ~csv
    (C.qos_table ~measure:(if fast then Simtime.sec 2 else Simtime.sec 4) ());
  print_table ~csv (C.tenant_table ~measure:(if fast then Simtime.sec 1 else Simtime.sec 3) ());
  match gate with
  | Some g ->
      if g.C.op_err_pct > 5.0 then begin
        Format.printf "cluster: GATE FAILED — oracle error %.1f%% > 5%%@." g.C.op_err_pct;
        Stdlib.exit 1
      end;
      if g.C.op_concurrent < 100_000 then begin
        Format.printf "cluster: GATE FAILED — peak concurrency %d < 100000@."
          g.C.op_concurrent;
        Stdlib.exit 1
      end;
      Format.printf "cluster: gate passed@."
  | None -> ()

let cluster_cmd =
  let check_flag =
    let doc =
      "Also run the acceptance gate: 16 machines, clients holding connections so \
       >= 10^5 are concurrently open, M/G/1-PS prediction within 5%."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let json_out_arg =
    let doc = "Write the oracle points as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json-out" ] ~doc ~docv:"FILE")
  in
  let machines_arg =
    let doc = "Machines in the oracle-curve cluster (default: 2 with --fast, else 4)." in
    Arg.(value & opt (some int) None & info [ "machines" ] ~doc ~docv:"N")
  in
  let shards_arg =
    let doc =
      "Execute the oracle and gate clusters across $(docv) event-core shards \
       (parallel across domains when the host has them).  Results are \
       byte-identical for every value — that is the contract CI's determinism \
       stage checks by comparing --json-out files.  This command takes no --jobs: \
       sharding is its only parallelism."
    in
    Arg.(value & opt int 1 & info [ "shards" ] ~doc ~docv:"N")
  in
  let doc = "Run the cluster scale-out experiments (balancer + PS oracle)." in
  Cmd.v (Cmd.info "cluster" ~doc)
    Term.(
      const run_cluster $ fast_flag $ csv_flag $ check_flag $ machines_arg $ shards_arg
      $ json_out_arg)

let sweep_cmd =
  let json_out_arg =
    let doc = "Write the JSON report to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "json-out" ] ~doc ~docv:"FILE")
  in
  let doc = "Run the multi-point throughput sweep (parallel with --jobs)." in
  Cmd.v (Cmd.info "sweep" ~doc) Term.(const run_sweep $ jobs_flag $ fast_flag $ json_out_arg)

(* The Zipf corpus experiment (ROADMAP item 4): heavy-tailed popularity
   over 10^5-10^6 documents, cache eviction against the disk model, and a
   uniform flash crowd, with the machine invariants (including
   cache.bytes-consistency over the arena) armed throughout. *)
let run_zipf fast csv docs s json_out =
  let module Z = Experiments.Exp_zipf in
  let docs = match docs with Some d -> d | None -> if fast then 20_000 else 100_000 in
  if docs < 1 then begin
    Format.eprintf "zipf: --docs must be >= 1@.";
    Stdlib.exit 2
  end;
  let exponents =
    match s with Some v -> [ v ] | None -> if fast then [ 0.9 ] else Z.default_exponents
  in
  let warmup = if fast then Simtime.ms 500 else Simtime.sec 1 in
  let measure = if fast then Simtime.sec 1 else Simtime.sec 2 in
  let points = Z.run ~docs ~exponents ~warmup ~measure ~spike_measure:measure () in
  print_table ~csv (Z.table points);
  match json_out with
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Engine.Jsonx.to_string (Z.json ~docs points)));
      Format.printf "zipf: %d docs, %d point(s), QoS table written to %s@." docs
        (List.length points) path
  | None -> ()

let zipf_cmd =
  let docs_arg =
    let doc = "Corpus size in documents (default: 20000 with --fast, else 100000)." in
    Arg.(value & opt (some int) None & info [ "docs" ] ~doc ~docv:"N")
  in
  let s_arg =
    let doc = "Run only this Zipf exponent (default: the 0.6/0.9/1.1 sweep)." in
    Arg.(value & opt (some float) None & info [ "s" ] ~doc ~docv:"S")
  in
  let json_out_arg =
    let doc = "Write the QoS table as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json-out" ] ~doc ~docv:"FILE")
  in
  let doc = "Run the Zipf-corpus flash-crowd experiment (item 4 scenario)." in
  Cmd.v (Cmd.info "zipf" ~doc)
    Term.(const run_zipf $ fast_flag $ csv_flag $ docs_arg $ s_arg $ json_out_arg)

(* Conservation-law fuzzing: run seeded random scenarios with every
   invariant armed.  Exit status 0 means every law held on every run (or,
   under --inject, that the planted bug was caught on every run). *)
let run_fuzz jobs seeds seed mode cpus machines shards zipf inject trace_out =
  let jobs = resolve_jobs jobs in
  if cpus < 1 then begin
    Format.eprintf "fuzz: --cpus must be >= 1@.";
    Stdlib.exit 2
  end;
  if machines < 1 then begin
    Format.eprintf "fuzz: --machines must be >= 1@.";
    Stdlib.exit 2
  end;
  if zipf && machines > 1 then begin
    Format.eprintf "fuzz: --zipf is a single-rig scenario family (drop --machines)@.";
    Stdlib.exit 2
  end;
  if shards < 1 then begin
    Format.eprintf "fuzz: --shards must be >= 1@.";
    Stdlib.exit 2
  end;
  let modes =
    if mode = "all" then Fuzz.all_modes
    else
      match Fuzz.mode_of_string mode with
      | Some m -> [ m ]
      | None ->
          Format.eprintf "fuzz: unknown --mode %S (want all, softirq, lrp or rc)@." mode;
          Stdlib.exit 2
  in
  let inject =
    match inject with
    | None -> false
    | Some "mischarge" -> true
    | Some other ->
        Format.eprintf "fuzz: unknown --inject %S (only 'mischarge' is defined)@." other;
        Stdlib.exit 2
  in
  let seed_list =
    match seed with Some s -> [ s ] | None -> List.init seeds (fun i -> i + 1)
  in
  let outcomes =
    match (seed_list, modes) with
    | [ s ], [ m ] ->
        (* Single replay: honour --trace-out for the violation dump. *)
        let o =
          Fuzz.run_seed ~inject ~cpus ~machines ~shards ~zipf ?trace_path:trace_out
            ~mode:m ~seed:s ()
        in
        Format.printf "%a@." Fuzz.pp_outcome o;
        [ o ]
    | _ when jobs > 1 ->
        (* Each (mode, seed) scenario is a pure function of its pair, so
           the batch fans across domains; outcomes print in batch order
           once all runs finish.  A sharded scenario's windows run on the
           domain that runs the scenario (a batch inside a batch is
           serial), so --shards adds no domains here. *)
        let pairs =
          Array.of_list
            (List.concat_map (fun m -> List.map (fun s -> (m, s)) seed_list) modes)
        in
        let outcomes =
          Experiments.Harness.Sweep.map ~jobs
            (fun (m, s) -> Fuzz.run_seed ~inject ~cpus ~machines ~shards ~zipf ~mode:m ~seed:s ())
            pairs
        in
        Array.iter (fun o -> Format.printf "%a@." Fuzz.pp_outcome o) outcomes;
        Array.to_list outcomes
    | _ ->
        Fuzz.run_batch ~inject ~cpus ~machines ~shards ~zipf
          ~log:(fun o -> Format.printf "%a@." Fuzz.pp_outcome o)
          ~modes ~seeds:seed_list ()
  in
  let violations = List.filter (fun o -> o.Fuzz.violation <> None) outcomes in
  let total = List.length outcomes and bad = List.length violations in
  if inject then
    if bad = total then
      Format.printf "fuzz: injected mis-charge caught on all %d run(s)@." total
    else begin
      Format.printf "fuzz: injected mis-charge MISSED on %d of %d run(s)@." (total - bad) total;
      Stdlib.exit 1
    end
  else begin
    Format.printf "fuzz: %d run(s), %d violation(s)@." total bad;
    if bad > 0 then Stdlib.exit 1
  end

let fuzz_cmd =
  let seeds_arg =
    let doc = "Run seeds 1..$(docv) (ignored when --seed is given)." in
    Arg.(value & opt int 20 & info [ "seeds" ] ~doc ~docv:"N")
  in
  let seed_arg =
    let doc = "Run exactly this seed." in
    Arg.(value & opt (some int) None & info [ "seed" ] ~doc ~docv:"SEED")
  in
  let mode_arg =
    let doc = "Stack mode to fuzz: $(b,all), $(b,softirq), $(b,lrp) or $(b,rc)." in
    Arg.(value & opt string "all" & info [ "mode" ] ~doc ~docv:"MODE")
  in
  let cpus_arg =
    let doc =
      "Run every scenario on an SMP machine with $(docv) processors (per-CPU run \
       queues and RSS packet steering); the generated workload is identical at \
       every CPU count."
    in
    Arg.(value & opt int 1 & info [ "cpus" ] ~doc ~docv:"N")
  in
  let machines_arg =
    let doc =
      "Fuzz cluster scenarios: $(docv) machines behind the load balancer (random \
       policy, tenants and arrival profile) with the cluster usage-rollup law \
       armed on every machine."
    in
    Arg.(value & opt int 1 & info [ "machines" ] ~doc ~docv:"N")
  in
  let shards_arg =
    let doc =
      "Execute each cluster scenario across $(docv) event-core shards (requires \
       --machines > 1 to matter).  Outcomes are byte-identical at every shard \
       count — a differing outcome IS a determinism bug.  With --jobs > 1 the \
       scenarios run in parallel and each one's shards run on its own domain."
    in
    Arg.(value & opt int 1 & info [ "shards" ] ~doc ~docv:"N")
  in
  let inject_arg =
    let doc =
      "Plant a known accounting bug ($(b,mischarge)); every run must then be caught \
       by the cpu.conservation law or the command fails."
    in
    Arg.(value & opt (some string) None & info [ "inject" ] ~doc ~docv:"BUG")
  in
  let zipf_arg =
    let doc =
      "Force the large-Zipf corpus scenario family: thousands of documents against \
       a small cache, clients on a Zipf popularity mix, churning the cache \
       eviction path under the armed cache.bytes-consistency law (single-rig \
       only)."
    in
    Arg.(value & flag & info [ "zipf" ] ~doc)
  in
  let doc = "Fuzz random scenarios under the conservation-law invariants." in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const run_fuzz $ jobs_flag $ seeds_arg $ seed_arg $ mode_arg $ cpus_arg
      $ machines_arg $ shards_arg $ zipf_arg $ inject_arg $ trace_out_flag)

let term_of f =
  let apply jobs fast csv chart trace_out metrics_out =
    chart_mode := chart;
    if trace_out <> None || metrics_out <> None then Experiments.Harness.observe ();
    f (resolve_jobs jobs) fast csv;
    (* Export the observability of the last rig the run built. *)
    match Experiments.Harness.last_rig () with
    | Some rig -> Experiments.Harness.export ?trace_out ?metrics_out rig
    | None -> ()
  in
  Term.(
    const apply $ jobs_flag $ fast_flag $ csv_flag $ chart_flag $ trace_out_flag
    $ metrics_out_flag)

let subcommand name doc f = Cmd.v (Cmd.info name ~doc) (term_of f)

let cmds =
  [
    subcommand "baseline" "Reproduce §5.3 baseline throughput." run_baseline;
    subcommand "table1" "Reproduce Table 1 primitive costs." run_table1;
    subcommand "fig11" "Reproduce Figure 11 (prioritised clients)." run_fig11;
    subcommand "fig12" "Reproduce Figure 12 (CGI vs static throughput)." run_fig12;
    subcommand "fig13" "Reproduce Figure 13 (CGI CPU share)." run_fig13;
    subcommand "fig14" "Reproduce Figure 14 (SYN-flood immunity)." run_fig14;
    subcommand "virtual" "Reproduce §5.8 virtual-server isolation." run_virtual;
    subcommand "overhead" "Reproduce §5.4 per-request container overhead." run_overhead;
    subcommand "disk" "Run the §4.4 disk-bandwidth extension experiments." run_disk;
    subcommand "latency" "Run the latency-vs-load extension sweep." run_latency;
    subcommand "trace" "Dump a kernel trace of a small RC scenario." run_trace;
    subcommand "ablation" "Run the design-choice ablations." run_ablation;
    subcommand "smp" "Run the SMP steering/fixed-share extension experiments." run_smp;
    cluster_cmd;
    sweep_cmd;
    zipf_cmd;
    fuzz_cmd;
    subcommand "all" "Run every experiment." run_all;
  ]

let () =
  let doc = "Reproduction of 'Resource Containers' (Banga, Druschel & Mogul, OSDI '99)" in
  (* With no subcommand, run the traced demo scenario — so
     [rc_sim --trace-out t.jsonl --metrics-out m.json] exports something
     useful out of the box. *)
  exit (Cmd.eval (Cmd.group ~default:(term_of run_trace) (Cmd.info "rc_sim" ~doc) cmds))
