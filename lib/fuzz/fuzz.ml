(* Seeded scenario fuzzer: generate a random-but-reproducible server
   scenario, run it with every conservation law armed, and report the
   first violation.  A scenario is a pure function of (seed, mode), so a
   failure found on any machine replays anywhere from its printed seed. *)

module Simtime = Engine.Simtime
module Rng = Engine.Rng
module Attrs = Rescont.Attrs
module Stack = Netsim.Stack
module Cluster = Clustersim.Cluster
module Filter = Netsim.Filter
module Ipaddr = Netsim.Ipaddr
module Scenario = Experiments.Scenario

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

let replay_command ?(inject = false) ?(cpus = 1) ?(machines = 1) ?(zipf = false) ~mode ~seed () =
  Printf.sprintf "dune exec bin/rc_sim.exe -- fuzz --seed %d --mode %s%s%s%s%s" seed
    (mode_name mode)
    (if cpus > 1 then Printf.sprintf " --cpus %d" cpus else "")
    (if machines > 1 then Printf.sprintf " --machines %d" machines else "")
    (if zipf then " --zipf" else "")
    (if inject then " --inject mischarge" else "")

(* The generated scenario in one line, so a violating run is
   understandable from its log line alone. *)
let describe (sc : Scenario.t) =
  let server = List.hd sc.servers in
  Format.asprintf "%s/%s groups=%d clients=%d%s dur=%a check=%a%s%s"
    (match server.model with Event _ -> "event" | Threaded _ -> "threaded" | Forked _ -> "forked")
    (match server.policy with
    | Shared -> "none"
    | Inherit_listen -> "inherit"
    | Per_connection _ -> "per-conn")
    (List.length sc.groups)
    (List.fold_left (fun n (g : Scenario.group) -> n + g.count) 0 sc.groups)
    (match sc.flood with Some f -> Printf.sprintf " flood=%.0f/s" f.rate | None -> "")
    Simtime.pp_span sc.warmup Simtime.pp_span
    (Option.get sc.check_interval)
    (match (sc.corpus, (List.hd sc.groups).docs) with
    | Some c, Zipf s ->
        Printf.sprintf " zipf docs=%d s=%.1f cap=%dKB%s" c.docs s (c.capacity_bytes / 1024)
          (if c.warm then " warm" else "")
    | _ -> "")
    (if sc.cpus > 1 then Printf.sprintf " cpus=%d" sc.cpus else "")

let doc_paths = [| "/doc/1k"; "/doc/8k"; "/doc/64k" |]

(* The cluster family: N machines behind the balancer, random policy,
   tenants and arrival profile, an optional SYN flood on a random
   machine, and every machine's registry armed, the cluster-wide
   "cluster.usage-rollup" law included.  Every choice is drawn here, up
   front, in the order the hand-wired run drew it: that run drew a
   tenant's priority before its weight and the cluster's seed before its
   worker count, because the compiler evaluates a call's arguments right
   to left.  The mis-charge node is the last draw, made with or without
   [inject], so a seed draws the same scenario either way.  The outcome
   record has no shards field: running one seed at several shard counts
   and comparing outcomes is the sharded-determinism check. *)
let generate_cluster ~inject ~machines ~seed mode =
  let rng = Rng.create ~seed in
  let pick arr = arr.(Rng.int rng (Array.length arr)) in
  let policy = pick [| Cluster.Round_robin; Least_conns; Flow_hash; Replicate 2 |] in
  let tenants =
    List.init
      (1 + Rng.int rng 2)
      (fun i ->
        let priority = 10 + Rng.int rng 40 in
        let weight = 1 + Rng.int rng 3 in
        Cluster.tenant_spec ~weight ~attrs:(Attrs.timeshare ~priority ()) (Printf.sprintf "t%d" i))
  in
  let rate = float_of_int (500 + Rng.int rng 3_000) in
  let profile =
    if Rng.bool rng then
      Cluster.Spike { base = rate; peak = 3. *. rate; at = Simtime.ms 30; until = Simtime.ms 70 }
    else Cluster.Poisson rate
  in
  let node = Rng.int rng machines in
  let flood =
    if Rng.bool rng then
      Some { Scenario.node; rate = float_of_int (2_000 + Rng.int rng 20_000); tenant = None }
    else None
  in
  let seed = Rng.int rng 1_000_000 in
  let workers = 4 + Rng.int rng 12 in
  let duration = Simtime.ms (80 + Rng.int rng 170) in
  let check_interval = Simtime.ms (2 + Rng.int rng 6) in
  let victim = Rng.int rng machines in
  {
    Scenario.cluster with
    machines;
    mode;
    policy;
    profile;
    workers;
    tenants;
    seed;
    check_interval = Some check_interval;
    mischarge = (if inject then Some victim else None);
    flood;
    warmup = duration;
    windows = [];
    drain = Some (Simtime.ms 100);
  }

let describe_cluster (sc : Scenario.cluster) =
  let rate = match sc.profile with Poisson r -> r | Spike s -> s.base in
  Format.asprintf "cluster/%s machines=%d tenants=%d rate=%.0f/s%s%s dur=%a check=%a%s"
    (Cluster.policy_name sc.policy)
    sc.machines (List.length sc.tenants) rate
    (match sc.profile with Spike _ -> " spike" | Poisson _ -> "")
    (match sc.flood with Some f -> Printf.sprintf " flood=%.0f/s@%d" f.rate f.node | None -> "")
    Simtime.pp_span sc.warmup Simtime.pp_span (Option.get sc.check_interval)
    (if sc.cpus > 1 then Printf.sprintf " cpus=%d" sc.cpus else "")

(* The single-rig family: every choice is drawn here, up front, in the
   order the fuzzer has always drawn it, so a seed keeps its scenario.
   The two streams the run itself consumes, the per-connection priorities
   and the Poisson flood's arrivals, start from seeds drawn here too. *)
let generate ~zipf ~inject ~seed mode =
  let rng = Rng.create ~seed in
  let pick arr = arr.(Rng.int rng (Array.length arr)) in
  let queue_cap = 8 + Rng.int rng 120 in
  (* The large-Zipf corpus family (--zipf): thousands of documents of
     heterogeneous size against a cache holding a small fraction of the
     corpus, so every run churns the arena's eviction path while
     cache.bytes-consistency (and the LRU-list structure check) sweep it.
     All of its draws sit inside the branch: non-zipf seeds generate the
     scenarios they always did. *)
  let corpus =
    if not zipf then None
    else begin
      let docs = 2_000 + Rng.int rng 8_000 in
      let s = pick [| 0.6; 0.9; 1.1 |] in
      let c =
        {
          Scenario.docs;
          unit_bytes = 256;
          classes = 16;
          capacity_bytes = 0;
          warm = false;
          disk = false;
        }
      in
      let capacity_bytes = max 4096 (Scenario.corpus_bytes c / (4 + Rng.int rng 12)) in
      Some ({ c with capacity_bytes; warm = Rng.bool rng }, s)
    end
  in
  let model = Rng.int rng 3 in
  let flood = Rng.bool rng in
  (* Listen sockets: a catch-all, plus sometimes a filtered high-priority
     class (VIP prefix 10.200/16) and, when flooding, the §4.8 defence —
     the attacker's prefix steered to an idle-class container. *)
  let vip_base = Ipaddr.v 10 200 0 1 in
  let with_vip = Rng.bool rng in
  let vip =
    if not with_vip then []
    else
      let attrs =
        if Rng.bool rng then Attrs.timeshare ~priority:(50 + Rng.int rng 50) ()
        else Attrs.timeshare ~priority:40 ~memory_limit:((16 + Rng.int rng 48) * 1024) ()
      in
      [ ("vip", attrs, Filter.prefix ~template:(Ipaddr.v 10 200 0 0) ~bits:16) ]
  in
  let idle = Attrs.with_priority (Attrs.timeshare ~priority:1 ()) 0 in
  let bin =
    if flood && Rng.bool rng then
      [ ("flood-bin", idle, Filter.prefix ~template:(Ipaddr.v 192 168 66 0) ~bits:24) ]
    else []
  in
  let policy = Rng.int rng 3 in
  let model =
    match model with
    | 0 -> Scenario.Event (pick [| Httpsim.Event_server.Select; Httpsim.Event_server.Event_api |])
    | 1 -> Threaded (2 + Rng.int rng 8)
    | _ -> Forked (2 + Rng.int rng 6)
  in
  (* Closed-loop client groups; the first sometimes sits inside the VIP
     prefix so filtered demux and container inheritance are hit. *)
  let groups =
    List.init
      (1 + Rng.int rng 2)
      (fun i ->
        let vip_group = i = 0 && with_vip && Rng.bool rng in
        let count = 1 + Rng.int rng 6 in
        let think_time = Simtime.us (Rng.int rng 2000) in
        let seed = Rng.int rng 1_000_000 in
        let syn_timeout = Simtime.ms (200 + Rng.int rng 800) in
        let jitter = Simtime.us (Rng.int rng 500) in
        let requests_per_conn = 1 + Rng.int rng 16 in
        let persistent = Rng.bool rng in
        let path = doc_paths.(Rng.int rng (Array.length doc_paths)) in
        {
          Scenario.group with
          name = Printf.sprintf "g%d" i;
          src_base = (if vip_group then vip_base else Ipaddr.v 10 (1 + i) 0 1);
          docs = (match corpus with Some (_, s) -> Zipf s | None -> Path path);
          count;
          persistent;
          requests_per_conn;
          think_time;
          jitter;
          syn_timeout;
          seed;
        })
  in
  let flood =
    if not flood then None
    else
      let rate = float_of_int (2_000 + Rng.int rng 30_000) in
      let seed = if Rng.bool rng then Some (Rng.int rng 1_000_000) else None in
      Some { Scenario.src_count = 256; rate; seed }
  in
  let duration = Simtime.ms (80 + Rng.int rng 170) in
  let check_interval = Simtime.ms (1 + Rng.int rng 5) in
  let classes = bin @ vip in
  {
    Scenario.base with
    system =
      (match mode with
      | Stack.Softirq -> Experiments.Harness.Unmodified
      | Stack.Lrp -> Experiments.Harness.Lrp_sys
      | Stack.Rc -> Experiments.Harness.Rc_sys);
    queue_cap;
    trace = Some 4096;
    check_interval = Some check_interval;
    mischarge = inject;
    corpus = Option.map fst corpus;
    containers =
      List.rev_map (fun (name, attrs, _) -> { Scenario.name; parent = None; attrs }) classes;
    servers =
      [
        {
          Scenario.server with
          listens =
            List.map
              (fun (name, _, filter) -> { Scenario.listen with bind = Named name; filter })
              classes
            @ [ Scenario.listen ];
          model;
          policy =
            (match policy with
            | 0 -> Shared
            | 1 -> Inherit_listen
            | _ -> Per_connection { lo = 5; hi = 24; seed = Rng.int rng 1_000_000 });
        };
      ];
    groups;
    flood;
    warmup = duration;
    windows = [];
    drain = Some (Simtime.ms 100);
  }

let write_trace ~trace_path ~mode ~seed ~cpus trace =
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
    (fun () -> output_string oc (Engine.Tracelog.entries_to_jsonl trace));
  path

let run_seed ?(inject = false) ?(cpus = 1) ?(machines = 1) ?(shards = 1)
    ?(zipf = false) ?trace_path ~mode ~seed () =
  if cpus < 1 then invalid_arg "Fuzz.run_seed: cpus must be >= 1";
  if machines < 1 then invalid_arg "Fuzz.run_seed: machines must be >= 1";
  if shards < 1 then invalid_arg "Fuzz.run_seed: shards must be >= 1";
  if zipf && machines > 1 then
    invalid_arg "Fuzz.run_seed: the zipf corpus family is a single-rig scenario";
  let scenario, checks, completed, packets, established, violation, trace_file =
    if machines > 1 then
      let sc = { (generate_cluster ~inject ~machines ~seed mode) with cpus } in
      let o = Scenario.run_cluster ~shards sc in
      (describe_cluster sc, o.checks, o.completed, o.packets, o.established, o.violation, None)
    else
      let sc = { (generate ~zipf ~inject ~seed mode) with cpus } in
      let o = Scenario.run sc in
      let trace_file =
        Option.map (fun _ -> write_trace ~trace_path ~mode ~seed ~cpus o.trace) o.violation
      in
      (describe sc, o.checks, o.completed, o.packets, o.established, o.violation, trace_file)
  in
  {
    seed;
    mode;
    cpus;
    machines;
    scenario;
    zipf;
    checks;
    completed;
    packets;
    established;
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
