(* One benchmark repetition, run in a fresh process.

     rcbench.exe WORKLOAD --seed N [--window-ms MS] [--trace]
       [--spawned-at EPOCH_S] [--golden FILE]

   Builds the named workload from its seed, runs a short simulated warmup,
   then cuts the measured window into [slices] equal simulated slices and
   times each one on the host, referred to a quiet host by a calibration
   kernel timed after every slice.  It prints one JSON line: host cost
   (setup, per-slice wall time, allocation, heap), the simulated
   statistics that the output check compares, and with [--trace] the
   per-layer breakdown.

   Each repetition needs its own process: ids, the Docset interning table,
   ledger arenas and GC state are process-global, so a second workload in
   the same process would neither see the same ids nor pay the same GC
   cost.  perfbench/run.py spawns the repetitions and aggregates them. *)

module Simtime = Engine.Simtime
module Sim = Engine.Sim
module Jsonx = Engine.Jsonx
module Harness = Experiments.Harness
module Machine = Procsim.Machine
module Stack = Netsim.Stack
module Socket = Netsim.Socket
module Ipaddr = Netsim.Ipaddr
module File_cache = Httpsim.File_cache
module Sclient = Workload.Sclient
module Cluster = Clustersim.Cluster

let slices = 200

(* ---- the workloads --------------------------------------------------- *)

(* What the measurement loop needs from a built workload.  [advance] runs
   the model to an absolute simulated instant through the same entry point
   an experiment would use; [sim] is the single event core when there is
   one, so the traced run can drive it with [Sim.step]. *)
type built = {
  sim : Sim.t option;
  machines : int;
  now : unit -> Simtime.t;
  advance : Simtime.t -> unit;
  warmup : Simtime.span;
  default_window : Simtime.span;
  on_slice : int -> unit;  (* called before slice [i] of the window *)
  reset : unit -> unit;  (* start of the measured window *)
  completed : unit -> int;  (* requests completed since [reset] *)
  stats : unit -> (string * Jsonx.t) list;
  (* Simulated statistics: the output check compares them exactly. *)
}

let fixed x = Jsonx.String (Printf.sprintf "%.6f" x)

let counter reg name =
  match Engine.Metrics.value reg name with Some (Engine.Metrics.Counter n) -> n | _ -> 0

(* Layer counters of one machine and its stack, summed over [nodes]. *)
let machine_counts nodes =
  let sum f = List.fold_left (fun acc n -> acc + f n) 0 nodes in
  let reg (m, _) = Machine.metrics m in
  let st (_, s) = Stack.stats s in
  [
    ("sched_dispatches", Jsonx.Int (sum (fun n -> counter (reg n) "sched.dispatches")));
    ("sched_preemptions", Jsonx.Int (sum (fun n -> counter (reg n) "sched.preemptions")));
    ("irq_steals", Jsonx.Int (sum (fun n -> counter (reg n) "machine.irq_steals")));
    ("busy_ns", Jsonx.Int (sum (fun (m, _) -> Simtime.span_to_ns (Machine.busy_time m))));
    ("packets", Jsonx.Int (sum (fun n -> (st n).Stack.packets_processed)));
    ( "drops",
      Jsonx.Int
        (sum (fun n ->
             let s = st n in
             s.Stack.syn_queue_drops + s.Stack.accept_queue_drops + s.Stack.rx_queue_drops)) );
    ("queue_tables", Jsonx.Int (sum (fun (_, s) -> Stack.queue_table_size s)));
    ("net_refused", Jsonx.Int (sum (fun n -> (st n).Stack.refused)));
  ]

(* Counters accumulated since the [base] snapshot; [queue_tables] is a
   level, not a count, so it is reported as it stands. *)
let since now base =
  List.map2
    (fun (k, v) (_, v0) ->
      match (v, v0) with
      | Jsonx.Int a, Jsonx.Int b when k <> "queue_tables" -> (k, Jsonx.Int (a - b))
      | _ -> (k, v))
    now base

let client_stats prefix c =
  [
    (prefix ^ "completed", Jsonx.Int (Sclient.completed c));
    (prefix ^ "refused", Jsonx.Int (Sclient.refused c));
    (prefix ^ "timeouts", Jsonx.Int (Sclient.timeouts c));
    (prefix ^ "lat_ms_p50", fixed (Sclient.response_percentile c 0.5));
    (prefix ^ "lat_ms_p99", fixed (Sclient.response_percentile c 0.99));
    (prefix ^ "lat_ms_mean", fixed (Engine.Stats.Summary.mean (Sclient.response_times c)));
  ]

let cache_stats cache (h0, m0) =
  [
    ("cache_hits", Jsonx.Int (File_cache.hits cache - h0));
    ("cache_misses", Jsonx.Int (File_cache.misses cache - m0));
  ]

(* conn-containers: the paper's section 5.4 configuration at 64 clients.
   Every request gets a fresh container that the server thread rebinds
   to; the document is cached, so the cost is containers, scheduling and
   the network stack. *)
let conn_containers ~seed =
  let rig = Harness.make_rig Harness.Rc_sys in
  let listen =
    Socket.make_listen ~port:Harness.default_port
      ~container:(Procsim.Process.default_container rig.Harness.server_proc) ()
  in
  let server =
    Httpsim.Event_server.create ~stack:rig.Harness.stack ~process:rig.Harness.server_proc
      ~cache:rig.Harness.cache ~api:Httpsim.Event_server.Event_api
      ~policy:
        (Httpsim.Event_server.Per_connection
           { parent = rig.Harness.root; priority_of = (fun _ -> 10) })
      ~listens:[ listen ] ()
  in
  ignore (Httpsim.Event_server.start server);
  let clients =
    Sclient.create ~stack:rig.Harness.stack ~port:Harness.default_port ~path:Harness.doc_path
      ~jitter:(Simtime.ms 1) ~seed ~count:64 ()
  in
  Sclient.start clients;
  let cache0 = ref (0, 0) and polls0 = ref 0 and base = ref [] in
  let snapshot () = machine_counts [ (rig.Harness.machine, rig.Harness.stack) ] in
  {
    sim = Some rig.Harness.sim;
    machines = 1;
    now = (fun () -> Sim.now rig.Harness.sim);
    advance = Machine.run_until rig.Harness.machine;
    warmup = Simtime.ms 200;
    default_window = Simtime.sec 3;
    on_slice = ignore;
    reset =
      (fun () ->
        Sclient.reset_stats clients;
        cache0 := (File_cache.hits rig.Harness.cache, File_cache.misses rig.Harness.cache);
        polls0 := Httpsim.Event_server.poll_rounds server;
        base := snapshot ());
    completed = (fun () -> Sclient.completed clients);
    stats =
      (fun () ->
        client_stats "" clients
        @ cache_stats rig.Harness.cache !cache0
        @ [ ("poll_rounds", Jsonx.Int (Httpsim.Event_server.poll_rounds server - !polls0)) ]
        @ since (snapshot ()) !base);
  }

(* zipf-flash: the Exp_zipf shape on the unmodified kernel.  A 10^6
   document Zipf(0.9) corpus, a cache of 1/8 of its bytes and a disk
   behind it; steady premium and crowd traffic for the first half of the
   window, then a uniform flash crowd that drags the cache's hit rate
   down. *)
let zipf_doc_bytes i = 1024 * (1 + (i land 7))

let zipf_flash ~seed =
  let docs = 1_000_000 in
  let rig = Harness.make_rig Harness.Unmodified in
  let ids = Array.init docs (fun i -> Httpsim.Docset.intern (Printf.sprintf "/zipf/%d" i)) in
  let corpus = ref 0 in
  for i = 0 to docs - 1 do
    corpus := !corpus + zipf_doc_bytes i
  done;
  let cache = File_cache.create ~capacity_bytes:(!corpus / 8) () in
  (* [warm] loads in registration order, each load evicting the least
     recently used document, so registering the least popular first
     leaves the Zipf head resident: the steady phase starts from the cache
     state a long run would reach. *)
  for i = docs - 1 downto 0 do
    File_cache.add_doc cache ~doc:ids.(i) ~bytes:(zipf_doc_bytes i)
  done;
  File_cache.warm cache;
  let machine = rig.Harness.machine in
  File_cache.register_metrics cache (Machine.metrics machine);
  File_cache.register_invariants cache (Machine.invariants machine);
  Machine.arm_invariants ~interval:(Simtime.ms 300) machine;
  let disk = Disksim.Disk.create ~machine () in
  let root = rig.Harness.root in
  let premium_c =
    Rescont.Container.create ~parent:root ~name:"zipf-premium"
      ~attrs:(Rescont.Attrs.fixed_share ~share:0.4 ())
      ()
  and crowd_c =
    Rescont.Container.create ~parent:root ~name:"zipf-crowd"
      ~attrs:(Rescont.Attrs.timeshare ~priority:10 ())
      ()
  in
  let premium_base = Ipaddr.v 10 9 9 1 in
  let listens =
    [
      Socket.make_listen ~port:Harness.default_port
        ~filter:(Netsim.Filter.prefix ~template:premium_base ~bits:24)
        ~container:premium_c ();
      Socket.make_listen ~port:Harness.default_port ~container:crowd_c ();
    ]
  in
  let server =
    Httpsim.Threaded_server.create ~stack:rig.Harness.stack ~process:rig.Harness.server_proc
      ~cache ~disk ~workers:16 ~policy:Httpsim.Event_server.No_containers ~listens ()
  in
  Httpsim.Threaded_server.start server;
  let popularity = Engine.Dist.zipf ~n:docs ~s:0.9 in
  let uniform = Engine.Dist.zipf ~n:docs ~s:0. in
  let client name base mix k count =
    Sclient.create ~stack:rig.Harness.stack ~name ~src_base:base ~port:Harness.default_port
      ~doc_mix:(mix, ids) ~syn_timeout:(Simtime.sec 30) ~jitter:(Simtime.ms 1)
      ~seed:((4 * seed) + k) ~count ()
  in
  let premium = client "premium" premium_base popularity 1 6
  and crowd = client "crowd" (Ipaddr.v 10 1 0 1) popularity 2 12
  and flash = client "flash" (Ipaddr.v 10 2 0 1) uniform 3 40 in
  Sclient.start premium;
  Sclient.start crowd;
  let all = [ premium; crowd; flash ] in
  let total f = List.fold_left (fun acc c -> acc + f c) 0 all in
  let cache0 = ref (0, 0) and steady = ref [] and base = ref [] in
  let snapshot () = machine_counts [ (machine, rig.Harness.stack) ] in
  {
    sim = Some rig.Harness.sim;
    machines = 1;
    now = (fun () -> Sim.now rig.Harness.sim);
    advance = Machine.run_until machine;
    warmup = Simtime.ms 500;
    default_window = Simtime.sec 60;
    on_slice =
      (fun i ->
        if i = slices / 2 then begin
          steady := cache_stats cache !cache0;
          Sclient.start flash
        end);
    reset =
      (fun () ->
        List.iter Sclient.reset_stats all;
        cache0 := (File_cache.hits cache, File_cache.misses cache);
        base := snapshot ());
    completed = (fun () -> total Sclient.completed);
    stats =
      (fun () ->
        client_stats "premium_" premium
        @ client_stats "crowd_" crowd
        @ client_stats "flash_" flash
        @ [ ("completed", Jsonx.Int (total Sclient.completed));
            ("timeouts", Jsonx.Int (total Sclient.timeouts)) ]
        @ cache_stats cache !cache0
        @ List.map (fun (k, v) -> ("steady_" ^ k, v)) !steady
        @ [ ("disk_completed", Jsonx.Int (Disksim.Disk.completed disk));
            ("invariant_checks", Jsonx.Int (Engine.Invariant.checks_run (Machine.invariants machine))) ]
        @ since (snapshot ()) !base);
  }

(* cluster-hold: four single-CPU RC machines behind a flow-hash balancer,
   open-loop Poisson arrivals that hold their connection 5 s after the
   response, run as two lockstep shards. *)
let cluster_hold ~seed =
  let c =
    Cluster.create ~machines:4 ~cpus:1 ~shards:2 ~domains:1 ~mode:Stack.Rc ~policy:Cluster.Flow_hash
      ~profile:(Cluster.Poisson 8000.) ~service:(Engine.Dist.exponential ~mean:20_000.)
      ~hold:(Simtime.sec 5) ~seed ()
  in
  Cluster.start c;
  let nodes () =
    List.init (Cluster.machines c) (fun i -> (Cluster.node_machine c i, Cluster.node_stack c i))
  in
  let base = ref [] in
  {
    sim = None;
    machines = Cluster.machines c;
    now = (fun () -> Cluster.now c);
    advance = (fun t -> Cluster.run_for c (Simtime.diff t (Cluster.now c)));
    warmup = Simtime.sec 5;
    default_window = Simtime.sec 6;
    on_slice = ignore;
    reset =
      (fun () ->
        Cluster.reset_stats c;
        base := machine_counts (nodes ()));
    completed = (fun () -> Cluster.completed c);
    stats =
      (fun () ->
        let soj = Cluster.client_sojourn c in
        [
          ("issued", Jsonx.Int (Cluster.issued c));
          ("completed", Jsonx.Int (Cluster.completed c));
          ("refused", Jsonx.Int (Cluster.refused c));
          ("evicted", Jsonx.Int (Cluster.evicted c));
          ("peak_concurrent", Jsonx.Int (Cluster.peak_concurrent c));
          ("sojourn_ms_mean", fixed (1e3 *. Engine.Stats.Summary.mean soj));
          ("sojourn_ms_max", fixed (1e3 *. Engine.Stats.Summary.max soj));
        ]
        @ since (machine_counts (nodes ())) !base);
  }

let workloads =
  [ ("conn-containers", conn_containers); ("zipf-flash", zipf_flash); ("cluster-hold", cluster_hold) ]

(* ---- traced-run instruments ------------------------------------------ *)

(* The layers are the lib/ libraries; "stdlib" is the OCaml distribution,
   whose modules carry a bare file name in their debug info.  A sample
   whose interrupted frame belongs to none of them is "unclaimed". *)
let layers =
  [| "engine"; "sched"; "rescont"; "procsim"; "netsim"; "httpsim"; "disksim"; "workload";
     "clustersim"; "stdlib" |]

let unclaimed = Array.length layers
let stdlib = unclaimed - 1

let layer_of_file file =
  match String.split_on_char '/' file with
  | "lib" :: name :: _ :: _ -> (
      match Array.find_index (String.equal name) layers with
      | Some i when i <> stdlib -> i
      | Some _ | None -> unclaimed)
  | [ _ ] -> stdlib
  | _ -> unclaimed

(* SIGPROF sampler: every tick of process CPU time buckets the interrupted
   frame by its lib/<layer>/ source path.  OCaml runs the handler at the
   next poll point of the interrupted code, so frame 0 is the handler and
   the first located frame above it is where the time went — up to that
   poll point: a leaf loop that never polls is billed to the caller it
   returns to (an invariant law's sweep shows as lib/engine/invariant.ml). *)
module Sampler = struct
  let counts = Array.make (unclaimed + 1) 0

  (* Set while the calibration kernel runs: its ticks are nobody's. *)
  let paused = ref false

  let record _ =
    if not !paused then begin
      let b =
        match Printexc.backtrace_slots (Printexc.get_callstack 8) with
        | None -> unclaimed
        | Some slots ->
            let rec first i =
              if i >= Array.length slots then unclaimed
              else
                match Printexc.Slot.location slots.(i) with
                | Some loc -> layer_of_file loc.Printexc.filename
                | None -> first (i + 1)
            in
            first 1
      in
      counts.(b) <- counts.(b) + 1
    end

  let interval = 0.001

  let start () =
    Sys.set_signal Sys.sigprof (Sys.Signal_handle record);
    ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = interval; it_value = interval })

  let stop () =
    ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.; it_value = 0. });
    Sys.set_signal Sys.sigprof Sys.Signal_ignore
end

(* GC time from the runtime's own event ring: the durations of minor
   collections and of major slices, summed over domains. *)
module Gc_spans = struct
  let minor_ns = ref 0 and major_ns = ref 0 and lost = ref 0
  let counting = ref true
  let open_minor = Hashtbl.create 4 and open_major = Hashtbl.create 4
  let ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts)

  let callbacks =
    let table = function
      | Runtime_events.EV_MINOR -> Some (open_minor, minor_ns)
      | Runtime_events.EV_MAJOR_SLICE -> Some (open_major, major_ns)
      | _ -> None
    in
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun d ts phase ->
        match table phase with Some (o, _) -> Hashtbl.replace o d (ns ts) | None -> ())
      ~runtime_end:(fun d ts phase ->
        match table phase with
        | Some (o, total) -> (
            match Hashtbl.find_opt o d with
            | Some t0 ->
                Hashtbl.remove o d;
                if !counting then total := !total + (ns ts - t0)
            | None -> ())
        | None -> ())
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let cursor = ref None

  let start () =
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)

  let poll () =
    Option.iter (fun c -> ignore (Runtime_events.read_poll c callbacks None)) !cursor

  (* Read and drop the spans recorded since the last [poll]. *)
  let skip () =
    counting := false;
    poll ();
    counting := true
end

(* ---- host calibration ------------------------------------------------- *)

(* The benchmark's host is shared: for seconds to minutes at a time other
   tenants slow everything that runs on it, by up to 2x, and a run cannot
   outlast such a phase.  So after every slice a repetition times a fixed
   kernel, and refers the slice's host time to a quiet host: a slice that
   took T while the median of the kernel's 21 timings around it was [c] ms
   is reported as T * reference_ms / c.  The kernel is this file's own code,
   so no change to lib/ moves it.  It streams writes through a 2 MiB array,
   then allocates short-lived pairs, at most 256 of them live, and empties
   the young heap after itself.  Each slice empties it too, inside its own
   time, so the kernel's collections never copy or scan the simulator's
   data and the simulator's are billed to the slice that made the garbage.
   The kernel's allocation is left out of minor_words_per_req, and traced
   runs leave it out of the samples and GC spans. *)
module Calibration = struct
  (* The kernel's median time on a quiet 2-vCPU Intel Xeon VM at 2.1 GHz. *)
  let reference_ms = 0.45

  let span = 10 (* timings on either side of a slice's own *)
  let buf = Array.make (1 lsl 18) 0
  let sink = ref 0
  let minor_words = ref 0.

  (* One timing of the kernel, in ms. *)
  let kernel () =
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let n = Array.length buf in
    let j = ref 0 and acc = ref 0 in
    for _ = 1 to 100_000 do
      acc := (!acc * 31) + (!j lxor (!acc lsr 3));
      Array.unsafe_set buf !j !acc;
      j := if !j + 1 = n then 0 else !j + 1
    done;
    let live = ref [] in
    for i = 1 to 100_000 do
      live := (i, !acc) :: !live;
      if i land 255 = 0 then live := []
    done;
    sink := !acc + List.length !live;
    let ms = 1e3 *. (Unix.gettimeofday () -. t0) in
    Gc.minor ();
    minor_words := !minor_words +. (Gc.minor_words () -. w0);
    ms

  let median a =
    let a = Array.copy a in
    Array.sort Float.compare a;
    let n = Array.length a in
    (a.((n - 1) / 2) +. a.(n / 2)) /. 2.

  (* [scales timings] gives each slice's factor reference_ms / c. *)
  let scales timings =
    let n = Array.length timings in
    Array.init n (fun i ->
        let lo = max 0 (i - span) and hi = min (n - 1) (i + span) in
        reference_ms /. median (Array.sub timings lo (hi - lo + 1)))
end

(* ---- one repetition --------------------------------------------------- *)

let stat_int stats k =
  match List.assoc_opt k stats with Some (Jsonx.Int n) -> n | _ -> 0

(* Model counts per request: outputs of the simulation, not of the host,
   so they repeat exactly at a given seed.  A statistic a workload does not
   have reads 0. *)
let layer_counts stats ~req ~machines ~window =
  let per k = float_of_int (stat_int stats k) /. float_of_int (max 1 req) in
  let hits = stat_int stats "cache_hits" and misses = stat_int stats "cache_misses" in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  [
    ("sched.dispatches_per_req", per "sched_dispatches");
    ("sched.preemptions_per_req", per "sched_preemptions");
    ("procsim.irq_steals_per_req", per "irq_steals");
    ( "procsim.cpu_busy_frac",
      ratio (stat_int stats "busy_ns") (machines * Simtime.span_to_ns window) );
    ("netsim.packets_per_req", per "packets");
    ("netsim.drops_per_req", per "drops");
    ("netsim.queue_tables", float_of_int (stat_int stats "queue_tables"));
    ("httpsim.cache_hit_ratio", ratio hits (hits + misses));
    ("httpsim.poll_rounds_per_req", per "poll_rounds");
    ("workload.timeouts_per_req", per "timeouts");
    ("clustersim.peak_concurrent", float_of_int (stat_int stats "peak_concurrent"));
    ("clustersim.refused_frac", ratio (stat_int stats "refused") (stat_int stats "issued"));
  ]

let program_start = Unix.gettimeofday ()

let run_rep ~name ~seed ~window ~trace ~spawned_at =
  let build =
    match List.assoc_opt name workloads with
    | Some f -> f
    | None -> invalid_arg ("rcbench: unknown workload " ^ name)
  in
  let b = build ~seed in
  let window = match window with Some w -> w | None -> b.default_window in
  let setup_s = Unix.gettimeofday () -. spawned_at in
  b.advance (Simtime.add (b.now ()) b.warmup);
  b.reset ();
  let slice_ns = Simtime.span_to_ns window / slices in
  let start = b.now () in
  let times = Array.make slices 0. in
  let timings = Array.make slices 0. in
  let events = ref 0 in
  (* A single machine runs its slices on the event core and only the last
     through [advance], so the armed quiesce check runs once per window as
     it would in an unsliced run.  Traced, it fires events one by one up
     to a no-op sentinel at the slice horizon first: same events, same
     order. *)
  let step_to ~last horizon =
    match b.sim with
    | None -> b.advance horizon
    | Some sim ->
        if trace then begin
          let reached = ref false in
          Sim.post_at sim horizon (fun () -> reached := true);
          while (not !reached) && Sim.step sim do
            incr events
          done;
          decr events
        end;
        if last then b.advance horizon else Sim.run_until sim horizon
  in
  if trace then begin
    Gc_spans.start ();
    Sampler.start ()
  end;
  let words0 = Gc.minor_words () in
  for i = 0 to slices - 1 do
    b.on_slice i;
    let t0 = Unix.gettimeofday () in
    step_to ~last:(i = slices - 1) (Simtime.add start (Simtime.span_of_ns ((i + 1) * slice_ns)));
    Gc.minor ();
    times.(i) <- Unix.gettimeofday () -. t0;
    if trace then begin
      Gc_spans.poll ();
      Sampler.paused := true
    end;
    timings.(i) <- Calibration.kernel ();
    if trace then begin
      Gc_spans.skip ();
      Sampler.paused := false
    end
  done;
  let words1 = Gc.minor_words () in
  let gc1 = Gc.quick_stat () in
  if trace then Sampler.stop ();
  let scales = Calibration.scales timings in
  let times = Array.mapi (fun i t -> t *. scales.(i)) times in
  let req = b.completed () in
  let stats = b.stats () in
  let host_s = Array.fold_left ( +. ) 0. times in
  let slice_s = float_of_int slice_ns /. 1e9 in
  let per_simsec = Array.map (fun t -> 1e3 *. t /. slice_s) times in
  let window = Simtime.span_of_ns (slice_ns * slices) in
  let fl x = Jsonx.Float x in
  let per_req x = x /. float_of_int (max 1 req) in
  let traced =
    if not trace then []
    else begin
      let total = Array.fold_left ( + ) 0 Sampler.counts in
      let host_ns = host_s *. 1e9 in
      let share n = if total = 0 then 0. else float_of_int n /. float_of_int total in
      [
        ( "samples",
          Jsonx.Obj
            (Array.to_list
               (Array.mapi
                  (fun i n -> ((if i = unclaimed then "unclaimed" else layers.(i)), Jsonx.Int n))
                  Sampler.counts)) );
        ( "per_layer",
          Jsonx.Obj
            (List.map
               (fun (k, v) -> (k, fl v))
               (Array.to_list
                  (Array.mapi
                     (fun i l -> (l ^ ".self_ns_per_req", per_req (share Sampler.counts.(i) *. host_ns)))
                     layers)
               @ [
                   ("gc.minor_ns_per_req", per_req (float_of_int !Gc_spans.minor_ns));
                   ("gc.major_ns_per_req", per_req (float_of_int !Gc_spans.major_ns));
                   ("engine.events_per_req", per_req (float_of_int !events));
                   ( "engine.ns_per_event",
                     if !events = 0 then 0. else host_ns /. float_of_int !events );
                   ("trace.samples", float_of_int total);
                   ("trace.unclaimed_frac", share Sampler.counts.(unclaimed));
                   ("trace.gc_lost_events", float_of_int !Gc_spans.lost);
                 ]
               @ layer_counts stats ~req ~machines:b.machines ~window)) );
      ]
    end
  in
  Jsonx.Obj
    ([
       ("workload", Jsonx.String name);
       ("seed", Jsonx.Int seed);
       ("window_ms", Jsonx.Int (slice_ns * slices / 1_000_000));
       ("slices", Jsonx.Int slices);
       ("trace", Jsonx.Bool trace);
       ("calibration_ms", fl (Calibration.median timings));
       ("setup_s", fl (scales.(0) *. setup_s));
       ("requests", Jsonx.Int req);
       ("req_per_host_s", fl (float_of_int req /. host_s));
       ("slice_host_ms_per_simsec", Jsonx.List (Array.to_list (Array.map fl per_simsec)));
       ("minor_words_per_req", fl (per_req (words1 -. words0 -. !Calibration.minor_words)));
       ( "peak_heap_mb",
         fl (float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.) );
       ("stats", Jsonx.Obj stats);
     ]
    @ traced)

(* ---- the output check -------------------------------------------------- *)

(* The golden file maps "workload/seed/window_ms" to the statistics that
   run recorded; perfbench/run.py --record writes it. *)
let check_golden file result =
  let get k = Option.get (Jsonx.member k result) in
  let key =
    Printf.sprintf "%s/%d/%d"
      (Option.get (Jsonx.string_value (get "workload")))
      (Option.get (Jsonx.int_value (get "seed")))
      (Option.get (Jsonx.int_value (get "window_ms")))
  in
  let text = In_channel.with_open_bin file In_channel.input_all in
  match Jsonx.member key (Jsonx.parse_exn text) with
  | None -> "none"
  | Some expected -> if expected = get "stats" then "match" else "mismatch"

let () =
  let name = ref "" and seed = ref 1 and window_ms = ref 0 and trace = ref false in
  let spawned_at = ref program_start and golden = ref "" in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--window-ms", Arg.Set_int window_ms, "MS simulated measured window (default: the workload's)");
      ("--trace", Arg.Set trace, " per-layer breakdown");
      ("--spawned-at", Arg.Set_float spawned_at, "T epoch seconds at which the parent spawned us");
      ("--golden", Arg.Set_string golden, "FILE recorded statistics to check against");
    ]
    (fun w -> name := w)
    "rcbench.exe WORKLOAD [options]";
  let window = if !window_ms > 0 then Some (Simtime.ms !window_ms) else None in
  let result, outcome =
    match run_rep ~name:!name ~seed:!seed ~window ~trace:!trace ~spawned_at:!spawned_at with
    | r -> (r, if !golden = "" then "none" else check_golden !golden r)
    | exception Engine.Invariant.Violation v ->
        (Jsonx.Obj [ ("error", Jsonx.String (Format.asprintf "%a" Engine.Invariant.pp_violation v)) ],
         "raised")
  in
  let result =
    match result with Jsonx.Obj kv -> Jsonx.Obj (kv @ [ ("golden", Jsonx.String outcome) ]) | j -> j
  in
  print_endline (Jsonx.to_string result);
  if outcome = "mismatch" || outcome = "raised" then exit 1
