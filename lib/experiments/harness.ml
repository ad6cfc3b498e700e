module Simtime = Engine.Simtime
module Sim = Engine.Sim
module Container = Rescont.Container
module Machine = Procsim.Machine
module Process = Procsim.Process
module Stack = Netsim.Stack

type system = Unmodified | Lrp_sys | Rc_sys

let system_name = function
  | Unmodified -> "Unmodified"
  | Lrp_sys -> "LRP"
  | Rc_sys -> "RC"

type rig = {
  sim : Sim.t;
  root : Container.t;
  machine : Machine.t;
  server_proc : Process.t;
  stack : Stack.t;
  cache : Httpsim.File_cache.t;
}

let default_port = 80
let doc_path = "/doc/1k"
let cgi_path = "/cgi/run"

(* Observability plumbing: when [observe] has been called, every rig built
   afterwards gets an enabled trace log, and the most recent rig is
   remembered so CLI drivers can export after the experiment ran.  Atomic
   so rigs built inside sweep domains see the armed capacity; [last] is
   last-writer-wins, which is only meaningful under [~jobs:1] anyway. *)
let observe_capacity = Atomic.make None
let last = Atomic.make None

let observe ?(capacity = 65536) () = Atomic.set observe_capacity (Some capacity)
let last_rig () = Atomic.get last

let build ?(cpus = 1) ?(quantum = Simtime.ms 1) ?queue_cap ?softirq_charge ?trace system =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let invariants = Engine.Invariant.create () in
  let make_policy () =
    match system with
    | Unmodified | Lrp_sys -> Sched.Timeshare.make ()
    | Rc_sys -> Sched.Multilevel.make ~invariants ~root ()
  in
  let trace =
    match (trace, Atomic.get observe_capacity) with
    | Some capacity, _ | None, Some capacity ->
        Some (Engine.Tracelog.create ~enabled:true ~capacity ())
    | None, None -> None
  in
  let machine =
    Machine.create ~cpus ~quantum ?trace ~sim ~policy:make_policy ~root ~invariants ()
  in
  let server_proc = Process.create machine ~name:"httpd" () in
  let mode =
    match system with Unmodified -> Stack.Softirq | Lrp_sys -> Stack.Lrp | Rc_sys -> Stack.Rc
  in
  let stack =
    Stack.create ?queue_cap ?softirq_charge ~machine ~mode
      ~owner:(Process.default_container server_proc) ()
  in
  let cache = Httpsim.File_cache.create () in
  Httpsim.File_cache.register_metrics cache (Machine.metrics machine);
  Httpsim.File_cache.register_invariants cache (Machine.invariants machine);
  Httpsim.File_cache.add_document cache ~path:doc_path ~bytes:1024;
  Httpsim.File_cache.add_document cache ~path:"/doc/8k" ~bytes:8192;
  Httpsim.File_cache.add_document cache ~path:"/doc/64k" ~bytes:65536;
  Httpsim.File_cache.add_document cache ~path:cgi_path ~bytes:0;
  Httpsim.File_cache.warm cache;
  let rig = { sim; root; machine; server_proc; stack; cache } in
  Atomic.set last (Some rig);
  rig

let make_rig ?cpus ?quantum system = build ?cpus ?quantum system

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let export ?trace_out ?metrics_out rig =
  (match trace_out with
  | Some path -> write_file path (Engine.Tracelog.to_jsonl (Machine.trace rig.machine))
  | None -> ());
  match metrics_out with
  | Some path ->
      write_file path (Engine.Jsonx.to_string (Engine.Metrics.to_json (Machine.metrics rig.machine)) ^ "\n")
  | None -> ()

(* Parallel sweep executor.  Points are independent simulations: each
   rig is its own run ([Container.create_root]), with its own ids and
   ledger, so domains share no simulation state.  Each point must derive
   all randomness from its own seed, never from domain identity or global
   order, so that [map ~jobs:n] is a pure function of the input array —
   the determinism test diffs jobs=1 against jobs=4 byte-for-byte. *)
module Sweep = struct
  let recommended_jobs () = Domain.recommended_domain_count ()

  let map ?(jobs = 1) f points =
    let results = Array.make (Array.length points) None in
    Engine.Pool.run
      ~domains:(max 1 (min jobs (recommended_jobs ())))
      (Array.length points)
      (fun i -> results.(i) <- Some (f points.(i)));
    Array.map Option.get results

  let grid ~jobs f vs xs =
    let points = Array.of_list (List.concat_map (fun v -> List.map (fun x -> (v, x)) xs) vs) in
    let results = map ~jobs (fun (v, x) -> f v x) points in
    List.mapi (fun i v -> (v, List.mapi (fun k x -> (x, results.((i * List.length xs) + k))) xs)) vs
end
