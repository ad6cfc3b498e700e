(* A run as a value, and the one driver of each kind that builds and runs
   it: [t] and [run] for a single server, [cluster] and [run_cluster] for
   machines behind the balancer.

   A scenario is plain data: no closures and no live handles, so two
   scenarios compare with [=], print, and can be stored.  [run] and
   [run_cluster] are the only places in the experiments and the fuzzer
   that build a rig ([Harness.build]) or a cluster, their containers,
   threads, servers, clients and SYN floods, and run the warm-up and the
   measured windows.

   Construction order.  Ids come from per-run counters, one per id space,
   and the service order and the run-queue busy set break ties by id, so
   [run] builds in one fixed order: the rig; the corpus cache; the
   invariant sweep; the containers, in list order; the spinners; each
   server in list order (its own process and network thread, its CGI, its
   listens from the last to the first, then the server, started); the
   planted mis-charge; the client groups, started in list order; the
   flood.  [run_cluster] builds the cluster, the flood, the armed laws and
   the mis-charge, then starts the cluster and the flood; each phase
   (warm-up, every window, drain) is its own [Cluster.run_for], because
   barrier windows restart at every call.  The type definitions below are
   the interface, so the module has no .mli. *)

module Simtime = Engine.Simtime
module Sim = Engine.Sim
module Rng = Engine.Rng
module Container = Rescont.Container
module Machine = Procsim.Machine
module Process = Procsim.Process
module Stack = Netsim.Stack
module Socket = Netsim.Socket
module Ipaddr = Netsim.Ipaddr
module File_cache = Httpsim.File_cache
module Event_server = Httpsim.Event_server
module Cgi = Httpsim.Cgi
module Disk = Disksim.Disk
module Sclient = Workload.Sclient
module Cluster = Clustersim.Cluster

(** A container under the root ([parent = None]) or under an earlier one. *)
type container = { name : string; parent : string option; attrs : Rescont.Attrs.t }

(** An always-runnable thread computing in [burst]s; [cpu] pins it. *)
type spinner = { thread : string; container : string; cpu : int option; burst : Simtime.span }

(** A listen's container: none (charged to whoever the stack or server
    charges), the server process's own, or a named one. *)
type bind = Unbound | Own | Named of string

type listen = { bind : bind; filter : Netsim.Filter.t; backlog : int; syn_backlog : int }

(** [Threaded] and [Forked] carry the worker count; a forked server serves
    no CGI. *)
type model = Event of Event_server.api | Threaded of int | Forked of int

(** [Shared] is {!Event_server.No_containers}.  [Per_connection] puts a
    container per connection under the root, its priority drawn uniformly
    from [lo..hi] by a generator seeded with [seed]. *)
type policy = Shared | Inherit_listen | Per_connection of { lo : int; hi : int; seed : int }

(** [Cgi_under c]: each CGI request gets a container under [c]. *)
type cgi = No_cgi | Cgi | Cgi_under of string

type server = {
  host : string option;
      (** [Some c]: the server runs in its own process named [c] under
          container [c], with a network thread covering [c]'s subtree (a
          §5.8 guest).  [None]: the rig's [httpd]. *)
  port : int;
  listens : listen list;
  model : model;
  policy : policy;
  prefer : Ipaddr.t option;
      (** under [Shared], serve this source first (the §5.5 user-space
          preference) *)
  cgi : cgi;
}

(** Zipf(s) over the corpus, sampled by CDF inversion or by the alias
    method. *)
type docs = Path of string | Zipf_cdf of float | Zipf of float

(** A closed-loop client population ({!Workload.Sclient}). *)
type group = {
  name : string;
  src_base : Ipaddr.t;
  port : int;
  docs : docs;
  count : int;
  persistent : bool;
  requests_per_conn : int;
  think_time : Simtime.span;
  jitter : Simtime.span;
  syn_timeout : Simtime.span;
  seed : int;
  after : int;  (** measured windows run before it starts; 0: with the servers *)
}

(** [src_count] spoofed sources from 192.168.66.1; Poisson arrivals from
    [seed], evenly spaced without one. *)
type flood = { src_count : int; rate : float; seed : int option }

(** Documents ["/zipf/0"] .. of [unit_bytes * (1 + i mod classes)] bytes
    in a cache of their own, which the servers use in place of the rig's
    four warm documents; with [disk], misses are read from a disk. *)
type corpus = {
  docs : int;
  unit_bytes : int;
  classes : int;
  capacity_bytes : int;
  warm : bool;
  disk : bool;
}

type t = {
  system : Harness.system;
  cpus : int;
  quantum : Simtime.span;
  queue_cap : int;  (** the stack's per-container queue bound *)
  softirq_charge : Stack.softirq_charge;
  trace : int option;  (** trace entries kept, and reported in the outcome *)
  check_interval : Simtime.span option;  (** arms every law *)
  mischarge : bool;
      (** plant a 50 µs interrupt charge outside the root's subtree
          halfway through the run: the fuzzer's self-test *)
  corpus : corpus option;
  containers : container list;
  spinners : spinner list;
  servers : server list;
  groups : group list;
  flood : flood option;
  warmup : Simtime.span;
  windows : Simtime.span list;
  drain : Simtime.span option;
      (** after the windows, stop the clients and the flood and run this long *)
}

(** Unbound, no filter, backlog 128, SYN backlog 1024. *)
let listen = { bind = Unbound; filter = Netsim.Filter.any; backlog = 128; syn_backlog = 1024 }

(** The rig's [httpd] on port 80: one unbound listen, a [select()] event
    server, no containers, no CGI. *)
let server =
  {
    host = None;
    port = Harness.default_port;
    listens = [ listen ];
    model = Event Event_server.Select;
    policy = Shared;
    prefer = None;
    cgi = No_cgi;
  }

(** One client from 10.1.0.1 fetching ["/doc/1k"] on port 80 without
    keep-alive, think time or jitter: {!Workload.Sclient}'s defaults. *)
let group =
  {
    name = "clients";
    src_base = Ipaddr.v 10 1 0 1;
    port = Harness.default_port;
    docs = Path Harness.doc_path;
    count = 1;
    persistent = false;
    requests_per_conn = 64;
    think_time = Simtime.span_zero;
    jitter = Simtime.span_zero;
    syn_timeout = Simtime.sec 3;
    seed = 42;
    after = 0;
  }

(** The RC uniprocessor with 1 ms quanta, {!server} and {!group}, a 2 s
    warm-up and one 5 s window, nothing armed or traced. *)
let base =
  {
    system = Harness.Rc_sys;
    cpus = 1;
    quantum = Simtime.ms 1;
    queue_cap = 64;
    softirq_charge = Stack.Charge_system;
    trace = None;
    check_interval = None;
    mischarge = false;
    corpus = None;
    containers = [];
    spinners = [];
    servers = [ server ];
    groups = [ group ];
    flood = None;
    warmup = Simtime.sec 2;
    windows = [ Simtime.sec 5 ];
    drain = None;
  }

let doc_bytes (c : corpus) i = c.unit_bytes * (1 + (i mod c.classes))

let corpus_bytes (c : corpus) =
  let total = ref 0 in
  for i = 0 to c.docs - 1 do
    total := !total + doc_bytes c i
  done;
  !total

type group_stats = { completed : int; mean_ms : float; p50_ms : float; p99_ms : float }

(** A container's subtree usage over a window. *)
type usage = { cpu : Simtime.span; disk : Simtime.span }

type window = {
  span : Simtime.span;
  groups : (string * group_stats) list;  (** every group, in scenario order *)
  usage : (string * usage) list;  (** every container, in scenario order *)
  server_cpu : Simtime.span list;  (** each server's process container, subtree CPU *)
  busy : Simtime.span list;  (** each processor's busy time *)
  disk_busy : Simtime.span;
  hits : int;
  misses : int;  (** the servers' cache *)
  cgi_cpu : Simtime.span;  (** {!Cgi.cpu_charged}, every CGI *)
}

type outcome = {
  windows : window list;
  completed : int;  (** every group's responses over the whole run *)
  packets : int;
  established : int;
  checks : int;  (** invariant sweeps *)
  violation : string option;
      (** the run's first broken law or exception; the windows it cut
          short are missing *)
  trace : Engine.Tracelog.entry list;  (** retained entries when traced *)
}

(* A §3.1-style accounting bug on demand: interrupt work charged to a
   container outside the root's subtree, so [cpu.conservation] must trip
   at the next sweep, halfway through the warm-up and the windows.  Posted
   on the machine's own event core: a cluster node's may be another shard
   than the balancer's. *)
let plant_mischarge machine warmup windows =
  let run = Container.run (Machine.root machine) in
  let sink = Container.create_detached ~name:"mischarge-sink" run in
  let after = Simtime.span_scale 0.5 (List.fold_left Simtime.span_add warmup windows) in
  ignore
    (Sim.after (Machine.sim machine) after (fun () ->
         Machine.steal_time machine ~cost:(Simtime.us 50) ~charge:(`Container sink)))

(* The first broken law or exception of [go ()], if any. *)
let caught go =
  match go () with
  | () -> None
  | exception Engine.Invariant.Violation v ->
      Some (Format.asprintf "%a" Engine.Invariant.pp_violation v)
  | exception (Rescont.Usage.Negative_memory _ as e) -> Some (Printexc.to_string e)
  | exception e -> Some ("unexpected exception: " ^ Printexc.to_string e)

let run (t : t) =
  let rig =
    Harness.build ~cpus:t.cpus ~quantum:t.quantum ~queue_cap:t.queue_cap
      ~softirq_charge:t.softirq_charge ?trace:t.trace t.system
  in
  let machine = rig.Harness.machine and stack = rig.Harness.stack in
  let cache, ids, disk =
    match t.corpus with
    | None -> (rig.Harness.cache, [||], None)
    | Some c ->
        let ids =
          Array.init c.docs (fun i -> Httpsim.Docset.intern (Printf.sprintf "/zipf/%d" i))
        in
        let cache = File_cache.create ~capacity_bytes:c.capacity_bytes () in
        Array.iteri (fun i doc -> File_cache.add_doc cache ~doc ~bytes:(doc_bytes c i)) ids;
        if c.warm then File_cache.warm cache;
        File_cache.register_metrics cache (Machine.metrics machine);
        File_cache.register_invariants cache (Machine.invariants machine);
        (cache, ids, if c.disk then Some (Disk.create ~machine ()) else None)
  in
  Option.iter (fun interval -> Machine.arm_invariants ~interval machine) t.check_interval;
  let named = ref [] in
  let find name = List.assoc name !named in
  List.iter
    (fun (c : container) ->
      let parent = match c.parent with None -> rig.Harness.root | Some p -> find p in
      named := (c.name, Container.create ~parent ~name:c.name ~attrs:c.attrs ()) :: !named)
    t.containers;
  List.iter
    (fun (s : spinner) ->
      ignore
        (Machine.spawn machine ?cpu:s.cpu ~name:s.thread ~container:(find s.container)
           (fun () ->
             while true do
               Machine.cpu s.burst
             done)))
    t.spinners;
  let cgis = ref [] in
  let start_server sv =
    let proc =
      match sv.host with
      | None -> rig.Harness.server_proc
      | Some name ->
          let host = find name in
          let proc = Process.create machine ~container_parent:host ~name () in
          Stack.add_service stack ~name:(name ^ "-netisr") ~home:(Process.default_container proc)
            ~covers:(fun c -> Container.has_ancestor c ~ancestor:host);
          proc
    in
    let dynamic_handler =
      let make cgi_parent =
        let cgi = Cgi.create ~stack ~server_process:proc ?cgi_parent () in
        cgis := cgi :: !cgis;
        Some (Cgi.handler cgi)
      in
      match sv.cgi with No_cgi -> None | Cgi -> make None | Cgi_under c -> make (Some (find c))
    in
    (* Made last to first, the order the rule above fixes: a listen's id
       names it in traces and breaks demux ties between equally specific
       filters. *)
    let listens =
      List.rev
      @@ List.map
        (fun l ->
          let bound container =
            Socket.make_listen ~filter:l.filter ~backlog:l.backlog ~syn_backlog:l.syn_backlog
              ~container ~port:sv.port ()
          in
          match l.bind with
          | Unbound ->
              Socket.make_unbound_listen ~filter:l.filter ~backlog:l.backlog
                ~syn_backlog:l.syn_backlog ~port:sv.port (Container.run rig.Harness.root)
          | Own -> bound (Process.default_container proc)
          | Named c -> bound (find c))
        (List.rev sv.listens)
    in
    let policy =
      match sv.policy with
      | Shared -> Event_server.No_containers
      | Inherit_listen -> Event_server.Inherit_listen
      | Per_connection { lo; hi; seed } ->
          let rng = Rng.create ~seed in
          Event_server.Per_connection
            { parent = rig.Harness.root; priority_of = (fun _ -> lo + Rng.int rng (hi - lo + 1)) }
    in
    (match sv.model with
    | Event api ->
        let user_preference =
          Option.map
            (fun src conn -> if Ipaddr.equal conn.Socket.src src then 1 else 0)
            sv.prefer
        in
        ignore
          (Event_server.start
             (Event_server.create ~stack ~process:proc ~cache ?disk ~api ~policy
                ?user_preference ?dynamic_handler ~listens ()))
    | Threaded workers ->
        Httpsim.Threaded_server.start
          (Httpsim.Threaded_server.create ~stack ~process:proc ~cache ?disk ~workers ~policy
             ?dynamic_handler ~listens ())
    | Forked workers ->
        Httpsim.Forked_server.start
          (Httpsim.Forked_server.create ~stack ~master:proc ~cache ?disk ~workers ~policy
             ~listens ()));
    Process.default_container proc
  in
  let server_containers = List.map start_server t.servers in
  if t.mischarge then plant_mischarge machine t.warmup t.windows;
  let clients =
    List.map
      (fun (g : group) ->
        let path, doc_mix =
          match g.docs with
          | Path p -> (p, None)
          | Zipf_cdf s -> (Harness.doc_path, Some (Engine.Dist.zipf_cdf ~n:(Array.length ids) ~s, ids))
          | Zipf s -> (Harness.doc_path, Some (Engine.Dist.zipf ~n:(Array.length ids) ~s, ids))
        in
        Sclient.create ~stack ~name:g.name ~src_base:g.src_base ~port:g.port ~path ?doc_mix
          ~persistent:g.persistent ~requests_per_conn:g.requests_per_conn
          ~think_time:g.think_time ~jitter:g.jitter ~syn_timeout:g.syn_timeout ~seed:g.seed
          ~count:g.count ())
      t.groups
  in
  let starting k = List.iter2 (fun (g : group) c -> if g.after = k then Sclient.start c) t.groups clients in
  let flood =
    Option.map
      (fun f ->
        let rng = Option.map (fun seed -> Rng.create ~seed) f.seed in
        Workload.Synflood.create ~stack ~src_count:f.src_count ?rng ~rate_per_sec:f.rate ())
      t.flood
  in
  let run_for span = Machine.run_until machine (Simtime.add (Sim.now rig.Harness.sim) span) in
  (* Every counter a window reports, cumulative: a window is the
     difference of two readings. *)
  let read span groups =
    {
      span;
      groups;
      usage =
        List.map
          (fun (c : container) ->
            let k = find c.name in
            ( c.name,
              {
                cpu = Container.subtree_cpu k;
                disk = Rescont.Usage.disk_time (Container.subtree_usage k);
              } ))
          t.containers;
      server_cpu = List.map Container.subtree_cpu server_containers;
      busy = List.init t.cpus (Machine.busy_time_on machine);
      disk_busy = (match disk with Some d -> Disk.busy_time d | None -> Simtime.span_zero);
      hits = File_cache.hits cache;
      misses = File_cache.misses cache;
      cgi_cpu =
        List.fold_left
          (fun acc cgi -> Simtime.span_add acc (Cgi.cpu_charged cgi))
          Simtime.span_zero !cgis;
    }
  in
  let completed = ref 0 in
  let tally () = List.iter (fun c -> completed := !completed + Sclient.completed c) clients in
  let windows = ref [] in
  let measure k span =
    if k > 0 then starting k;
    tally ();
    List.iter Sclient.reset_stats clients;
    let w0 = read span [] in
    run_for span;
    let stats (g : group) c =
      ( g.name,
        {
          completed = Sclient.completed c;
          mean_ms = Engine.Stats.Summary.mean (Sclient.response_times c);
          p50_ms = Sclient.response_percentile c 0.5;
          p99_ms = Sclient.response_percentile c 0.99;
        } )
    in
    let w1 = read span (List.map2 stats t.groups clients) in
    let sub = Simtime.span_sub in
    windows :=
      {
        w1 with
        usage =
          List.map2
            (fun (name, u1) (_, u0) -> (name, { cpu = sub u1.cpu u0.cpu; disk = sub u1.disk u0.disk }))
            w1.usage w0.usage;
        server_cpu = List.map2 sub w1.server_cpu w0.server_cpu;
        busy = List.map2 sub w1.busy w0.busy;
        disk_busy = sub w1.disk_busy w0.disk_busy;
        hits = w1.hits - w0.hits;
        misses = w1.misses - w0.misses;
        cgi_cpu = sub w1.cgi_cpu w0.cgi_cpu;
      }
      :: !windows
  in
  let violation =
    caught (fun () ->
        starting 0;
        Option.iter Workload.Synflood.start flood;
        run_for t.warmup;
        List.iteri measure t.windows;
        Option.iter
          (fun span ->
            List.iter Sclient.stop clients;
            Option.iter Workload.Synflood.stop flood;
            run_for span)
          t.drain)
  in
  tally ();
  let s = Stack.stats stack in
  {
    windows = List.rev !windows;
    completed = !completed;
    packets = s.Stack.packets_processed;
    established = s.Stack.conns_established;
    checks = Engine.Invariant.checks_run (Machine.invariants machine);
    violation;
    trace =
      (match t.trace with
      | Some _ -> Engine.Tracelog.entries (Machine.trace machine)
      | None -> []);
  }

(** The windows; [Failure] on a violation. *)
let measured o = match o.violation with Some v -> failwith v | None -> o.windows

let window o = List.hd (measured o)
let stats w name = List.assoc name w.groups

(** Responses per second of the named group. *)
let throughput w name = float_of_int (stats w name).completed /. Simtime.span_to_sec_f w.span

let usage_of w name = List.assoc name w.usage

(* --- Cluster scenarios ----------------------------------------------- *)

(** A SYN flood on node [node], evenly spaced, from 256 sources at
    192.168.66.1, or, with [tenant = Some k], inside tenant [k]'s prefix,
    so that it fills that tenant's SYN queue. *)
type cluster_flood = { node : int; rate : float; tenant : int option }

type cluster = {
  machines : int;
  cpus : int;  (** per machine *)
  mode : Stack.mode;
  policy : Cluster.policy;
  profile : Cluster.profile;
  hold : Simtime.span;  (** how long a client keeps its connection after the response *)
  workers : int;  (** per machine *)
  ring_bits : int;
  window : Simtime.span option;  (** the dispatch window; [None]: a SYN's wire time *)
  tenants : Cluster.tenant_spec list;
  seed : int;
  check_interval : Simtime.span option;  (** arms every law *)
  mischarge : int option;  (** plant the mis-charge on this node halfway through the run *)
  flood : cluster_flood option;
  warmup : Simtime.span;
  windows : Simtime.span list;
  drain : Simtime.span option;
      (** after the windows, stop the arrivals and the flood and run this long *)
}

(** Four 1-CPU RC machines behind round-robin, Poisson 1000/s, no hold,
    32 workers, 2^20-entry rings, one tenant, seed 1, nothing armed or
    planted, a 1 s warm-up and one 4 s window: {!Clustersim.Cluster}'s
    defaults.  Every run keeps the cluster's 400 µs exponential service. *)
let cluster =
  {
    machines = 4;
    cpus = 1;
    mode = Stack.Rc;
    policy = Cluster.Round_robin;
    profile = Cluster.Poisson 1000.;
    hold = Simtime.span_zero;
    workers = 32;
    ring_bits = 20;
    window = None;
    tenants = [ Cluster.tenant_spec "tenant0" ];
    seed = 1;
    check_interval = None;
    mischarge = None;
    flood = None;
    warmup = Simtime.sec 1;
    windows = [ Simtime.sec 4 ];
    drain = None;
  }

type cluster_window = {
  issued : int;
  completed : int;  (** logical requests answered, clone responses counted once *)
  refused : int;
  dup_responses : int;
  evicted : int;
  peak_concurrent : int;
  client_sojourn : Engine.Stats.Summary.t;  (** connect to first response, seconds *)
  server_sojourn : Engine.Stats.Summary.t;  (** request at the NIC to response on the wire *)
  busy : Simtime.span list;  (** each node's *)
  served : int list;
  syn_drops : int list;
}

type tenant_usage = { cpu_ns : int; rx_bytes : int; tx_bytes : int }

type cluster_outcome = {
  windows : cluster_window list;
  completed : int;  (** over the whole run *)
  packets : int;
  established : int;
  checks : int;  (** every node's invariant sweeps *)
  syn_drops : int list;  (** each node's, over the whole run *)
  tenants : (string * tenant_usage) list;  (** each tenant's rollup at the end *)
  violation : string option;  (** the first broken law or exception, the rollup law's at the end *)
}

(** Runs [t] over [shards] event cores ({!Clustersim.Cluster.create});
    the outcome is the same at every shard count, which is why it is not
    a field. *)
let run_cluster ?shards (t : cluster) =
  let c =
    Cluster.create ~machines:t.machines ?shards ~cpus:t.cpus ~mode:t.mode ~policy:t.policy
      ~profile:t.profile ~hold:t.hold ~workers:t.workers ~ring_bits:t.ring_bits ?window:t.window
      ~tenants:t.tenants ~seed:t.seed ()
  in
  let nodes = List.init t.machines Fun.id in
  let flood =
    Option.map
      (fun (f : cluster_flood) ->
        Workload.Synflood.create ~stack:(Cluster.node_stack c f.node)
          ?src_base:(Option.map (fun k -> Ipaddr.offset (Cluster.tenant_prefix c k) 1) f.tenant)
          ~rate_per_sec:f.rate ())
      t.flood
  in
  Option.iter (fun interval -> Cluster.arm_invariants ~interval c) t.check_interval;
  Option.iter (fun i -> plant_mischarge (Cluster.node_machine c i) t.warmup t.windows) t.mischarge;
  let busy () = List.map (fun i -> Machine.busy_time (Cluster.node_machine c i)) nodes in
  let stats i = Stack.stats (Cluster.node_stack c i) in
  let syn_drops () = List.map (fun i -> (stats i).Stack.syn_queue_drops) nodes in
  let completed = ref 0 and windows = ref [] in
  let measure span =
    completed := !completed + Cluster.completed c;
    Cluster.reset_stats c;
    let busy0 = busy () and drops0 = syn_drops () in
    Cluster.run_for c span;
    windows :=
      {
        issued = Cluster.issued c;
        completed = Cluster.completed c;
        refused = Cluster.refused c;
        dup_responses = Cluster.dup_responses c;
        evicted = Cluster.evicted c;
        peak_concurrent = Cluster.peak_concurrent c;
        (* A copy: a drain keeps adding to the live summary. *)
        client_sojourn = Engine.Stats.Summary.(merge (create ()) (Cluster.client_sojourn c));
        server_sojourn = Cluster.server_sojourn c;
        busy = List.map2 Simtime.span_sub (busy ()) busy0;
        served = List.map (Cluster.node_served c) nodes;
        syn_drops = List.map2 ( - ) (syn_drops ()) drops0;
      }
      :: !windows
  in
  let violation =
    caught (fun () ->
        Cluster.start c;
        Option.iter Workload.Synflood.start flood;
        Cluster.run_for c t.warmup;
        List.iter measure t.windows;
        Option.iter
          (fun span ->
            Cluster.stop_arrivals c;
            Option.iter Workload.Synflood.stop flood;
            Cluster.run_for c span)
          t.drain)
  in
  let sum f = List.fold_left (fun n i -> n + f i) 0 nodes in
  {
    windows = List.rev !windows;
    completed = !completed + Cluster.completed c;
    packets = sum (fun i -> (stats i).Stack.packets_processed);
    established = sum (fun i -> (stats i).Stack.conns_established);
    checks =
      sum (fun i -> Engine.Invariant.checks_run (Machine.invariants (Cluster.node_machine c i)));
    syn_drops = syn_drops ();
    tenants =
      List.init (Cluster.tenant_count c) (fun k ->
          let open Rescont.Rollup in
          let g = Cluster.tenant_group c k in
          ( Cluster.tenant_name c k,
            { cpu_ns = cpu_ns g; rx_bytes = rx_bytes g; tx_bytes = tx_bytes g } ));
    violation =
      (match (violation, Cluster.rollup_law c) with
      | None, Error e -> Some ("cluster.usage-rollup violated: " ^ e)
      | v, _ -> v);
  }

(** The windows; [Failure] on a violation. *)
let cluster_measured (o : cluster_outcome) =
  match o.violation with Some v -> failwith v | None -> o.windows
