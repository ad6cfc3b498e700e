(* Seeded scenario fuzzer: build a random-but-reproducible server rig,
   run it with every conservation law armed, and report the first
   violation.  A scenario is a pure function of (seed, mode), so a failure
   found on any machine replays anywhere from its printed seed. *)

module Simtime = Engine.Simtime
module Sim = Engine.Sim
module Rng = Engine.Rng
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Machine = Procsim.Machine
module Process = Procsim.Process
module Stack = Netsim.Stack
module Socket = Netsim.Socket
module Filter = Netsim.Filter
module Ipaddr = Netsim.Ipaddr

type server_model = Event | Threaded | Forked

let server_model_name = function
  | Event -> "event"
  | Threaded -> "threaded"
  | Forked -> "forked"

let mode_name = function
  | Stack.Softirq -> "softirq"
  | Stack.Lrp -> "lrp"
  | Stack.Rc -> "rc"

let mode_of_string = function
  | "softirq" -> Some Stack.Softirq
  | "lrp" -> Some Stack.Lrp
  | "rc" -> Some Stack.Rc
  | _ -> None

let all_modes = [ Stack.Softirq; Stack.Lrp; Stack.Rc ]

type outcome = {
  seed : int;
  mode : Stack.mode;
  cpus : int;  (** processors per machine *)
  machines : int;  (** 1 = single rig; > 1 = cluster behind the balancer *)
  scenario : string;  (** one-line description of the generated scenario *)
  zipf : bool;  (** the large-Zipf corpus family was forced *)
  checks : int;  (** invariant sweeps that ran *)
  completed : int;  (** client requests completed *)
  packets : int;  (** packets the stack processed *)
  established : int;
  injected : bool;  (** the deliberate mis-charge was planted *)
  violation : string option;  (** [None] = every law held *)
  trace_file : string option;  (** JSONL trace written on violation *)
}

let replay_command ?(inject = false) ?(cpus = 1) ?(machines = 1) ?(shards = 1)
    ?(zipf = false) ~mode ~seed () =
  Printf.sprintf "dune exec bin/rc_sim.exe -- fuzz --seed %d --mode %s%s%s%s%s%s" seed
    (mode_name mode)
    (if cpus > 1 then Printf.sprintf " --cpus %d" cpus else "")
    (if machines > 1 then Printf.sprintf " --machines %d" machines else "")
    (if shards > 1 then Printf.sprintf " --shards %d" shards else "")
    (if zipf then " --zipf" else "")
    (if inject then " --inject mischarge" else "")

(* The generated scenario, described so a violating run is understandable
   from its log line alone. *)
type scenario = {
  server : server_model;
  policy_desc : string;
  groups : int;
  clients_total : int;
  flood_rate : float option;
  duration : Simtime.span;
  check_interval : Simtime.span;
}

let scenario_summary s =
  Format.asprintf "%s/%s groups=%d clients=%d%s dur=%a check=%a"
    (server_model_name s.server)
    s.policy_desc s.groups s.clients_total
    (match s.flood_rate with
    | Some r -> Printf.sprintf " flood=%.0f/s" r
    | None -> "")
    Simtime.pp_span s.duration Simtime.pp_span s.check_interval

let doc_paths = [| "/doc/1k"; "/doc/8k"; "/doc/64k" |]

(* The cluster scenario family: N machines behind the balancer, random
   policy/tenants/profile, an optional SYN flood on a random machine, and
   every machine's registry armed — including the cluster-wide
   "cluster.usage-rollup" law that ties the per-machine tenant ledgers to
   the rollup totals.  Same contract as the single-rig path: the scenario
   is a pure function of (seed, mode); [cpus] and [machines] only change
   where the work lands, and [shards] must not change anything at all —
   the outcome record deliberately has no shards field, so running the
   same seed at different shard counts and comparing outcomes IS the
   sharded-determinism check. *)
let run_cluster_seed ~inject ~cpus ~machines ~shards ~mode ~seed () =
  let module Cluster = Clustersim.Cluster in
  let rng = Rng.create ~seed in
  let pick arr = arr.(Rng.int rng (Array.length arr)) in
  let policy_desc, policy =
    pick
      [|
        ("round-robin", Cluster.Round_robin);
        ("least-conns", Cluster.Least_conns);
        ("flow-hash", Cluster.Flow_hash);
        ("replicate-2", Cluster.Replicate 2);
      |]
  in
  let tenant_count = 1 + Rng.int rng 2 in
  let tenants =
    List.init tenant_count (fun i ->
        Cluster.tenant_spec
          ~weight:(1 + Rng.int rng 3)
          ~attrs:(Attrs.timeshare ~priority:(10 + Rng.int rng 40) ())
          (Printf.sprintf "t%d" i))
  in
  let rate = float_of_int (500 + Rng.int rng 3_000) in
  let profile =
    if Rng.bool rng then
      Cluster.Spike
        { base = rate; peak = 3. *. rate; at = Simtime.ms 30; until = Simtime.ms 70 }
    else Cluster.Poisson rate
  in
  let flood_node = Rng.int rng machines in
  let flood_rate =
    if Rng.bool rng then Some (float_of_int (2_000 + Rng.int rng 20_000)) else None
  in
  let c =
    Cluster.create ~machines ~shards ~cpus ~mode ~policy ~profile ~tenants
      ~workers:(4 + Rng.int rng 12)
      ~seed:(Rng.int rng 1_000_000)
      ()
  in
  let attacker =
    Option.map
      (fun rate_per_sec ->
        Workload.Synflood.create ~stack:(Cluster.node_stack c flood_node) ~rate_per_sec ())
      flood_rate
  in
  let duration = Simtime.ms (80 + Rng.int rng 170) in
  let check_interval = Simtime.ms (2 + Rng.int rng 6) in
  Cluster.arm_invariants ~interval:check_interval c;
  (if inject then
     (* Same planted bug as the single rig, on a random machine: its
        cpu.conservation law must catch it at the next sweep. *)
     let victim = Cluster.node_machine c (Rng.int rng machines) in
     let detached =
       Container.create_detached ~name:"mischarge-sink" (Container.run (Machine.root victim))
     in
     (* Scheduled on the victim's own event core: under sharding the
        balancer's sim is another shard, and a cross-shard schedule
        would both race and make the outcome depend on the shard
        count. *)
     ignore
       (Sim.after (Machine.sim victim)
          (Simtime.span_scale 0.5 duration)
          (fun () ->
            Machine.steal_time victim ~cost:(Simtime.us 50) ~charge:(`Container detached))));
  let violation =
    try
      Cluster.start c;
      Option.iter Workload.Synflood.start attacker;
      Cluster.run_for c duration;
      Cluster.stop_arrivals c;
      Option.iter Workload.Synflood.stop attacker;
      Cluster.run_for c (Simtime.ms 100);
      None
    with
    | Engine.Invariant.Violation v ->
        Some (Format.asprintf "%a" Engine.Invariant.pp_violation v)
    | Rescont.Usage.Negative_memory _ as e -> Some (Printexc.to_string e)
    | e -> Some ("unexpected exception: " ^ Printexc.to_string e)
  in
  let packets = ref 0 and established = ref 0 and checks = ref 0 in
  for i = 0 to machines - 1 do
    let s = Stack.stats (Cluster.node_stack c i) in
    packets := !packets + s.Stack.packets_processed;
    established := !established + s.Stack.conns_established;
    checks :=
      !checks + Engine.Invariant.checks_run (Machine.invariants (Cluster.node_machine c i))
  done;
  {
    seed;
    mode;
    cpus;
    machines;
    scenario =
      Format.asprintf "cluster/%s machines=%d tenants=%d rate=%.0f/s%s%s dur=%a check=%a%s"
        policy_desc machines tenant_count rate
        (match profile with Cluster.Spike _ -> " spike" | _ -> "")
        (match flood_rate with
        | Some r -> Printf.sprintf " flood=%.0f/s@%d" r flood_node
        | None -> "")
        Simtime.pp_span duration Simtime.pp_span check_interval
        (if cpus > 1 then Printf.sprintf " cpus=%d" cpus else "");
    zipf = false;
    checks = !checks;
    completed = Cluster.completed c;
    packets = !packets;
    established = !established;
    injected = inject;
    violation;
    trace_file = None;
  }

let rec run_seed ?(inject = false) ?(cpus = 1) ?(machines = 1) ?(shards = 1)
    ?(zipf = false) ?trace_path ~mode ~seed () =
  if cpus < 1 then invalid_arg "Fuzz.run_seed: cpus must be >= 1";
  if machines < 1 then invalid_arg "Fuzz.run_seed: machines must be >= 1";
  if shards < 1 then invalid_arg "Fuzz.run_seed: shards must be >= 1";
  if zipf && machines > 1 then
    invalid_arg "Fuzz.run_seed: the zipf corpus family is a single-rig scenario";
  if machines > 1 then run_cluster_seed ~inject ~cpus ~machines ~shards ~mode ~seed ()
  else run_single_seed ~inject ~cpus ~zipf ?trace_path ~mode ~seed ()

and run_single_seed ~inject ~cpus ~zipf ?trace_path ~mode ~seed () =
  let rng = Rng.create ~seed in
  let pick arr = arr.(Rng.int rng (Array.length arr)) in
  let sim = Sim.create () in
  let root = Container.create_root () in
  let invariants = Engine.Invariant.create () in
  (* Same policy constructor per run-queue shard; the generated
     scenario itself is a pure function of (seed, mode) — [cpus] only
     changes where its work lands, never the rng stream. *)
  let make_policy () =
    match mode with
    | Stack.Rc -> Sched.Multilevel.make ~invariants ~root ()
    | Stack.Softirq | Stack.Lrp -> Sched.Timeshare.make ()
  in
  let trace = Engine.Tracelog.create ~enabled:true ~capacity:4096 () in
  let machine = Machine.create ~cpus ~sim ~policy:make_policy ~root ~invariants ~trace () in
  let server_proc = Process.create machine ~name:"httpd" () in
  let stack =
    Stack.create ~machine ~mode
      ~queue_cap:(8 + Rng.int rng 120)
      ~owner:(Process.default_container server_proc)
      ()
  in
  (* The large-Zipf corpus family (--zipf): thousands of documents of
     heterogeneous size against a cache holding a small fraction of
     the corpus, so every run churns the arena's eviction path while
     cache.bytes-consistency (and the LRU-list structure check) sweep
     it.  All of its rng draws sit inside the branch: non-zipf seeds
     generate byte-for-byte the scenarios they always did. *)
  let zipf_corpus =
    if not zipf then None
    else begin
      let docs = 2_000 + Rng.int rng 8_000 in
      let s = pick [| 0.6; 0.9; 1.1 |] in
      let doc_bytes i = 256 * (1 + (i land 15)) in
      let corpus = ref 0 in
      for i = 0 to docs - 1 do
        corpus := !corpus + doc_bytes i
      done;
      let capacity_bytes = max 4096 (!corpus / (4 + Rng.int rng 12)) in
      let ids =
        Array.init docs (fun i ->
            Httpsim.Docset.intern (Printf.sprintf "/zipf/%d" i))
      in
      Some (docs, s, doc_bytes, capacity_bytes, ids, Rng.bool rng (* warm? *))
    end
  in
  let cache =
    match zipf_corpus with
    | None -> Httpsim.File_cache.create ()
    | Some (_, _, _, capacity_bytes, _, _) -> Httpsim.File_cache.create ~capacity_bytes ()
  in
  Httpsim.File_cache.register_invariants cache invariants;
  (match zipf_corpus with
  | None ->
      Array.iter
        (fun path ->
          let bytes =
            match path with
            | "/doc/1k" -> 1024
            | "/doc/8k" -> 8192
            | _ -> 65536
          in
          Httpsim.File_cache.add_document cache ~path ~bytes)
        doc_paths;
      Httpsim.File_cache.warm cache
  | Some (_, _, doc_bytes, _, ids, warm) ->
      Array.iteri
        (fun i id -> Httpsim.File_cache.add_doc cache ~doc:id ~bytes:(doc_bytes i))
        ids;
      if warm then Httpsim.File_cache.warm cache);
  let doc_mix =
    Option.map
      (fun (docs, s, _, _, ids, _) -> (Engine.Dist.zipf ~n:docs ~s, ids))
      zipf_corpus
  in
  (* --- scenario generation ------------------------------------- *)
  let server_model = pick [| Event; Threaded; Forked |] in
  let flood = Rng.bool rng in
  (* Listen sockets: a catch-all, plus sometimes a filtered high-
     priority class (VIP prefix 10.200/16) and, when flooding, the
     §4.8 defence — the attacker's prefix steered to an idle-class
     container. *)
  let vip_base = Ipaddr.v 10 200 0 1 in
  let listens = ref [ Socket.make_unbound_listen ~port:80 (Container.run root) ] in
  let with_vip = Rng.bool rng in
  if with_vip then begin
    let attrs =
      if Rng.bool rng then Attrs.timeshare ~priority:(50 + Rng.int rng 50) ()
      else Attrs.timeshare ~priority:40 ~memory_limit:((16 + Rng.int rng 48) * 1024) ()
    in
    let vip_cont = Container.create ~parent:root ~name:"vip" ~attrs () in
    listens :=
      Socket.make_listen ~port:80
        ~filter:(Filter.prefix ~template:(Ipaddr.v 10 200 0 0) ~bits:16)
        ~container:vip_cont ()
      :: !listens
  end;
  if flood && Rng.bool rng then begin
    let bin_attrs =
      let base = Attrs.timeshare ~priority:1 () in
      Attrs.with_priority base 0 (* idle class *)
    in
    let bin = Container.create ~parent:root ~name:"flood-bin" ~attrs:bin_attrs () in
    listens :=
      Socket.make_listen ~port:80
        ~filter:(Filter.prefix ~template:(Ipaddr.v 192 168 66 0) ~bits:24)
        ~container:bin ()
      :: !listens
  end;
  let policy_choices =
    [|
      ("none", Httpsim.Event_server.No_containers);
      ("inherit", Httpsim.Event_server.Inherit_listen);
      ( "per-conn",
        Httpsim.Event_server.Per_connection
          { parent = root; priority_of = (fun _ -> 5 + Rng.int rng 20) } );
    |]
  in
  let policy_desc, server_policy = pick policy_choices in
  (match server_model with
  | Event ->
      let api = pick [| Httpsim.Event_server.Select; Httpsim.Event_server.Event_api |] in
      let server =
        Httpsim.Event_server.create ~stack ~process:server_proc ~cache ~api
          ~policy:server_policy ~listens:!listens ()
      in
      ignore (Httpsim.Event_server.start server)
  | Threaded ->
      let server =
        Httpsim.Threaded_server.create ~stack ~process:server_proc ~cache
          ~workers:(2 + Rng.int rng 8) ~policy:server_policy ~listens:!listens ()
      in
      Httpsim.Threaded_server.start server
  | Forked ->
      let server =
        Httpsim.Forked_server.create ~stack ~master:server_proc ~cache
          ~workers:(2 + Rng.int rng 6) ~policy:server_policy ~listens:!listens ()
      in
      Httpsim.Forked_server.start server);
  (* Closed-loop client groups; the first sometimes sits inside the
     VIP prefix so filtered demux and container inheritance are hit. *)
  let groups = 1 + Rng.int rng 2 in
  let clients_total = ref 0 in
  let sclients =
    List.init groups (fun i ->
        let vip_group = i = 0 && with_vip && Rng.bool rng in
        let src_base = if vip_group then vip_base else Ipaddr.v 10 (1 + i) 0 1 in
        let count = 1 + Rng.int rng 6 in
        clients_total := !clients_total + count;
        let think = Simtime.us (Rng.int rng 2000) in
        Workload.Sclient.create ~stack
          ~name:(Printf.sprintf "g%d" i)
          ~src_base ~port:80
          ~path:doc_paths.(Rng.int rng (Array.length doc_paths))
          ?doc_mix
          ~persistent:(Rng.bool rng)
          ~requests_per_conn:(1 + Rng.int rng 16)
          ~think_time:think
          ~jitter:(Simtime.us (Rng.int rng 500))
          ~syn_timeout:(Simtime.ms (200 + Rng.int rng 800))
          ~seed:(Rng.int rng 1_000_000)
          ~count ())
  in
  let flood_rate =
    if flood then Some (float_of_int (2_000 + Rng.int rng 30_000)) else None
  in
  let attacker =
    Option.map
      (fun rate_per_sec ->
        let rng_opt = if Rng.bool rng then Some (Rng.split rng) else None in
        Workload.Synflood.create ~stack ?rng:rng_opt ~rate_per_sec ())
      flood_rate
  in
  let duration = Simtime.ms (80 + Rng.int rng 170) in
  let check_interval = Simtime.ms (1 + Rng.int rng 5) in
  let scenario =
    {
      server = server_model;
      policy_desc;
      groups;
      clients_total = !clients_total;
      flood_rate;
      duration;
      check_interval;
    }
  in
  (* --- arm, run, drain ------------------------------------------ *)
  Machine.arm_invariants ~interval:check_interval machine;
  (if inject then
     (* A §3.1-style accounting bug on demand: interrupt work charged
        to a container outside the root's subtree.  Machine busy time
        advances but the root rollup does not, so [cpu.conservation]
        must trip at the next sweep. *)
     let detached = Container.create_detached ~name:"mischarge-sink" (Container.run root) in
     ignore
       (Sim.after sim
          (Simtime.span_scale 0.5 duration)
          (fun () ->
            Machine.steal_time machine ~cost:(Simtime.us 50)
              ~charge:(`Container detached))));
  let violation =
    try
      List.iter Workload.Sclient.start sclients;
      Option.iter Workload.Synflood.start attacker;
      Machine.run_until machine (Simtime.add Simtime.zero duration);
      List.iter Workload.Sclient.stop sclients;
      Option.iter Workload.Synflood.stop attacker;
      (* Drain: let in-flight packets, timers and closes settle, then
         the run_until quiesce sweep has the final word. *)
      Machine.run_until machine
        (Simtime.add Simtime.zero (Simtime.span_add duration (Simtime.ms 100)));
      None
    with
    | Engine.Invariant.Violation v ->
        Some (Format.asprintf "%a" Engine.Invariant.pp_violation v)
    | Rescont.Usage.Negative_memory _ as e -> Some (Printexc.to_string e)
    | e -> Some ("unexpected exception: " ^ Printexc.to_string e)
  in
  let trace_file =
    match violation with
    | None -> None
    | Some _ ->
        let path =
          match trace_path with
          | Some p -> p
          | None ->
              Printf.sprintf "fuzz-%s-seed%d%s.trace.jsonl" (mode_name mode) seed
                (if cpus > 1 then Printf.sprintf "-cpus%d" cpus else "")
        in
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (Engine.Tracelog.to_jsonl (Machine.trace machine)));
        Some path
  in
  let s = Stack.stats stack in
  {
    seed;
    mode;
    cpus;
    machines = 1;
    scenario =
      scenario_summary scenario
      ^ (match zipf_corpus with
        | Some (docs, s, _, cap, _, warm) ->
            Printf.sprintf " zipf docs=%d s=%.1f cap=%dKB%s" docs s (cap / 1024)
              (if warm then " warm" else "")
        | None -> "")
      ^ (if cpus > 1 then Printf.sprintf " cpus=%d" cpus else "");
    zipf;
    checks = Engine.Invariant.checks_run invariants;
    completed = List.fold_left (fun acc c -> acc + Workload.Sclient.completed c) 0 sclients;
    packets = s.Stack.packets_processed;
    established = s.Stack.conns_established;
    injected = inject;
    violation;
    trace_file;
  }

let pp_outcome ppf o =
  match o.violation with
  | None ->
      Format.fprintf ppf "seed %-6d %-7s ok    checks=%d completed=%d packets=%d  [%s]" o.seed
        (mode_name o.mode) o.checks o.completed o.packets o.scenario
  | Some v ->
      Format.fprintf ppf
        "seed %-6d %-7s FAIL  %s@\n  scenario: %s@\n  replay:   %s%s" o.seed
        (mode_name o.mode) v o.scenario
        (replay_command ~inject:o.injected ~cpus:o.cpus ~machines:o.machines ~zipf:o.zipf
           ~mode:o.mode ~seed:o.seed ())
        (match o.trace_file with
        | Some f -> Printf.sprintf "\n  trace:    %s" f
        | None -> "")

let run_batch ?(inject = false) ?(cpus = 1) ?(machines = 1) ?(shards = 1) ?(zipf = false)
    ?(log = fun _ -> ()) ~modes ~seeds () =
  List.concat_map
    (fun seed ->
      List.map
        (fun mode ->
          let o = run_seed ~inject ~cpus ~machines ~shards ~zipf ~mode ~seed () in
          log o;
          o)
        modes)
    seeds
