module Simtime = Engine.Simtime
module Sim = Engine.Sim
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Usage = Rescont.Usage
module Machine = Procsim.Machine

(* {1 Scheduler family} *)

(* Three CPU-bound threads in containers with priorities 30 / 20 / 10. *)
let shares_under policy_of ?(measure = Simtime.sec 10) () =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let machine = Machine.create ~sim ~policy:(fun () -> policy_of root) ~root () in
  let priorities = [ 30; 20; 10 ] in
  let containers =
    List.mapi
      (fun i priority ->
        Container.create ~parent:root
          ~name:(Printf.sprintf "burner-%d" i)
          ~attrs:(Attrs.timeshare ~priority ())
          ())
      priorities
  in
  List.iter
    (fun container ->
      ignore
        (Machine.spawn machine ~name:(Container.name container) ~container (fun () ->
             let rec burn () =
               Machine.cpu (Simtime.ms 10);
               burn ()
             in
             burn ())))
    containers;
  Machine.run_until machine (Simtime.add Simtime.zero measure);
  List.map
    (fun container ->
      Simtime.ratio (Usage.cpu_total (Container.usage container)) measure)
    containers

let scheduler_family_table ?measure () =
  let policies =
    [
      ("multilevel (prototype)", fun root -> Sched.Multilevel.make ~root ());
      ("timeshare (decay-usage)", fun _root -> Sched.Timeshare.make ());
      ("lottery", fun _root -> Sched.Lottery.make ~rng:(Engine.Rng.create ~seed:1) ());
      ("stride", fun _root -> Sched.Stride.make ());
    ]
  in
  let t =
    Engine.Series.table
      ~title:"Ablation: CPU shares of 3:2:1-priority containers under each scheduler"
      ~columns:[ "scheduler"; "prio 30 (ideal 50%)"; "prio 20 (ideal 33%)"; "prio 10 (ideal 17%)" ]
  in
  List.iter
    (fun (label, make) ->
      match shares_under make ?measure () with
      | [ a; b; c ] ->
          Engine.Series.add_row t
            [
              label;
              Printf.sprintf "%.1f%%" (100. *. a);
              Printf.sprintf "%.1f%%" (100. *. b);
              Printf.sprintf "%.1f%%" (100. *. c);
            ]
      | _ -> assert false)
    policies;
  t

(* {1 Scheduler-binding pruning} *)

let binding_sizes ~prune ~containers () =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let prune_interval = if prune then Simtime.ms 100 else Simtime.sec 3600 in
  let machine =
    Machine.create ~prune_interval ~prune_age:(Simtime.ms 500) ~sim
      ~policy:(fun () -> Sched.Multilevel.make ~root ())
      ~root ()
  in
  let leaves =
    List.init containers (fun i ->
        Container.create ~parent:root ~name:(Printf.sprintf "mux-%d" i) ())
  in
  let peak = ref 0 and final = ref 0 in
  let thread =
    Machine.spawn machine ~name:"mux"
      ~container:(List.nth leaves 0)
      (fun () ->
        (* Touch every container once, then settle on the first one and
           keep running so the binding stays live. *)
        List.iter
          (fun leaf ->
            Machine.rebind machine (Machine.self ()) leaf;
            Machine.cpu (Simtime.us 100))
          leaves;
        peak := Rescont.Binding.size (Machine.binding (Machine.self ()));
        Machine.rebind machine (Machine.self ()) (List.nth leaves 0);
        let rec settle () =
          Machine.cpu (Simtime.ms 10);
          settle ()
        in
        settle ())
  in
  ignore
    (Sim.at sim (Simtime.add Simtime.zero (Simtime.ms 4_900)) (fun () ->
         final := Rescont.Binding.size (Machine.binding thread)));
  Machine.run_until machine (Simtime.add Simtime.zero (Simtime.sec 5));
  (!peak, !final)

let binding_prune_table () =
  let containers = 32 in
  let t =
    Engine.Series.table
      ~title:
        (Printf.sprintf
           "Ablation: scheduler-binding set of a thread multiplexed over %d containers"
           containers)
      ~columns:[ "pruning"; "peak set size"; "set size after settling on one container" ]
  in
  let with_peak, with_final = binding_sizes ~prune:true ~containers () in
  let wo_peak, wo_final = binding_sizes ~prune:false ~containers () in
  Engine.Series.add_row t
    [ "enabled (100ms interval, 500ms age)"; string_of_int with_peak; string_of_int with_final ];
  Engine.Series.add_row t [ "disabled"; string_of_int wo_peak; string_of_int wo_final ];
  t

(* {1 Quantum sensitivity} *)

(* Request latency as the scheduling quantum varies, with a CPU-bound
   batch job sharing the machine: the server's short bursts wait behind the
   batch job's slices, so response time tracks the quantum directly. *)
let quantum_table () =
  let t =
    Engine.Series.table
      ~title:"Ablation: scheduling quantum (RC kernel, 4 clients vs a CPU-bound batch job)"
      ~columns:[ "quantum"; "throughput (req/s)"; "mean latency (ms)" ]
  in
  List.iter
    (fun quantum ->
      let w =
        Scenario.window
          (Scenario.run
             {
               Scenario.base with
               quantum;
               containers =
                 [ { name = "batch"; parent = None; attrs = Attrs.timeshare ~priority:10 () } ];
               spinners =
                 [ { thread = "batch"; container = "batch"; cpu = None; burst = Simtime.sec 1 } ];
               groups = [ { Scenario.group with jitter = Simtime.ms 1; count = 4 } ];
               warmup = Simtime.sec 1;
               windows = [ Simtime.sec 3 ];
             })
      in
      Engine.Series.add_row t
        [
          Format.asprintf "%a" Simtime.pp_span quantum;
          Printf.sprintf "%.0f" (Scenario.throughput w "clients");
          Printf.sprintf "%.2f" (Scenario.stats w "clients").mean_ms;
        ])
    [ Simtime.us 100; Simtime.ms 1; Simtime.ms 10 ];
  t

(* {1 Multiprocessor scaling} *)

(* The multi-threaded server model (paper §2, Fig. 3) on 1..4 processors:
   the thread pool exploits extra processors; the paper's experiments are
   all uniprocessor, so this is an extension. *)
let smp_scaling_table () =
  let t =
    Engine.Series.table
      ~title:"Extension: multi-threaded server scaling with processors (RC kernel)"
      ~columns:[ "processors"; "throughput (req/s)"; "speedup" ]
  in
  let base = ref 0. in
  List.iter
    (fun cpus ->
      let w =
        Scenario.window
          (Scenario.run
             {
               Scenario.base with
               cpus;
               servers = [ { Scenario.server with model = Threaded (8 * cpus) } ];
               groups = [ { Scenario.group with count = 48 * cpus } ];
               windows = [ Simtime.sec 4 ];
             })
      in
      let tput = Scenario.throughput w "clients" in
      if cpus = 1 then base := tput;
      Engine.Series.add_row t
        [
          string_of_int cpus;
          Printf.sprintf "%.0f" tput;
          Printf.sprintf "%.2fx" (tput /. Float.max 1. !base);
        ])
    [ 1; 2; 4 ];
  t

(* {1 Softirq charging} *)

let softirq_charging_table () =
  let concurrent_cgi = 4 in
  let t =
    Engine.Series.table
      ~title:
        (Printf.sprintf
           "Ablation: softirq charging policy vs server CPU share (%d competing CGI, fair \
            share %.0f%%)"
           concurrent_cgi
           (100. /. float_of_int (concurrent_cgi + 1)))
      ~columns:
        [ "softirq time charged to"; "server CPU share (as charged)"; "static req/s" ]
  in
  List.iter
    (fun (label, softirq_charge) ->
      let w =
        Scenario.window
          (Scenario.run
             {
               Scenario.base with
               system = Harness.Unmodified;
               softirq_charge;
               servers = [ { Scenario.server with cgi = Cgi } ];
               groups =
                 [
                   { Scenario.group with count = 24 };
                   {
                     Scenario.group with
                     name = "cgi-clients";
                     src_base = Netsim.Ipaddr.v 10 2 0 1;
                     docs = Path Harness.cgi_path;
                     syn_timeout = Simtime.sec 60;
                     count = concurrent_cgi;
                   };
                 ];
               warmup = Simtime.sec 5;
               windows = [ Simtime.sec 10 ];
             })
      in
      Engine.Series.add_row t
        [
          label;
          Printf.sprintf "%.1f%%" (100. *. Simtime.ratio (List.hd w.server_cpu) w.span);
          Printf.sprintf "%.0f" (Scenario.throughput w "clients");
        ])
    [
      ("no process at all (system)", Netsim.Stack.Charge_system);
      ("the unlucky current process", Netsim.Stack.Charge_current);
    ];
  t
