module Simtime = Engine.Simtime
module Sim = Engine.Sim
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Usage = Rescont.Usage
module Machine = Procsim.Machine
module Socket = Netsim.Socket

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
let quantum_point ~quantum ?(warmup = Simtime.sec 1) ?(measure = Simtime.sec 3) () =
  let rig = Harness.make_rig ~quantum Harness.Rc_sys in
  let batch =
    Container.create ~parent:rig.Harness.root ~name:"batch"
      ~attrs:(Attrs.timeshare ~priority:10 ())
      ()
  in
  ignore
    (Machine.spawn rig.Harness.machine ~name:"batch" ~container:batch (fun () ->
         let rec burn () =
           Machine.cpu (Simtime.sec 1);
           burn ()
         in
         burn ()));
  let listen =
    Socket.make_unbound_listen ~port:Harness.default_port (Container.run rig.Harness.root)
  in
  let server =
    Httpsim.Event_server.create ~stack:rig.Harness.stack ~process:rig.Harness.server_proc
      ~cache:rig.Harness.cache ~listens:[ listen ] ()
  in
  ignore (Httpsim.Event_server.start server);
  let load =
    Workload.Sclient.create ~stack:rig.Harness.stack ~port:Harness.default_port
      ~path:Harness.doc_path ~jitter:(Simtime.ms 1) ~count:4 ()
  in
  Workload.Sclient.start load;
  Harness.run_for rig warmup;
  Workload.Sclient.reset_stats load;
  Harness.run_for rig measure;
  ( float_of_int (Workload.Sclient.completed load) /. Simtime.span_to_sec_f measure,
    Engine.Stats.Summary.mean (Workload.Sclient.response_times load) )

let quantum_table ?warmup ?measure () =
  let t =
    Engine.Series.table
      ~title:"Ablation: scheduling quantum (RC kernel, 4 clients vs a CPU-bound batch job)"
      ~columns:[ "quantum"; "throughput (req/s)"; "mean latency (ms)" ]
  in
  List.iter
    (fun quantum ->
      let tput, lat = quantum_point ~quantum ?warmup ?measure () in
      Engine.Series.add_row t
        [
          Format.asprintf "%a" Simtime.pp_span quantum;
          Printf.sprintf "%.0f" tput;
          Printf.sprintf "%.2f" lat;
        ])
    [ Simtime.us 100; Simtime.ms 1; Simtime.ms 10 ];
  t

(* {1 Multiprocessor scaling} *)

(* The multi-threaded server model (paper §2, Fig. 3) on 1..4 processors:
   the thread pool exploits extra processors; the paper's experiments are
   all uniprocessor, so this is an extension. *)
let smp_throughput ~cpus ?(warmup = Simtime.sec 2) ?(measure = Simtime.sec 4) () =
  let rig = Harness.make_rig ~cpus Harness.Rc_sys in
  let listen =
    Socket.make_unbound_listen ~port:Harness.default_port (Container.run rig.Harness.root)
  in
  let server =
    Httpsim.Threaded_server.create ~stack:rig.Harness.stack ~process:rig.Harness.server_proc
      ~cache:rig.Harness.cache ~workers:(8 * cpus) ~listens:[ listen ] ()
  in
  Httpsim.Threaded_server.start server;
  let load =
    Workload.Sclient.create ~stack:rig.Harness.stack ~port:Harness.default_port
      ~path:Harness.doc_path ~count:(48 * cpus) ()
  in
  Workload.Sclient.start load;
  Harness.run_for rig warmup;
  Workload.Sclient.reset_stats load;
  Harness.run_for rig measure;
  float_of_int (Workload.Sclient.completed load) /. Simtime.span_to_sec_f measure

let smp_scaling_table ?warmup ?measure () =
  let t =
    Engine.Series.table
      ~title:"Extension: multi-threaded server scaling with processors (RC kernel)"
      ~columns:[ "processors"; "throughput (req/s)"; "speedup" ]
  in
  let base = ref 0. in
  List.iter
    (fun cpus ->
      let tput = smp_throughput ~cpus ?warmup ?measure () in
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

let server_share_with ~softirq_charge ?(warmup = Simtime.sec 5) ?(measure = Simtime.sec 10)
    ?(concurrent_cgi = 4) () =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let machine = Machine.create ~sim ~policy:(fun () -> Sched.Timeshare.make ()) ~root () in
  let server_proc = Procsim.Process.create machine ~name:"httpd" () in
  let stack =
    Netsim.Stack.create ~machine ~mode:Netsim.Stack.Softirq ~softirq_charge
      ~owner:(Procsim.Process.default_container server_proc) ()
  in
  let cache = Httpsim.File_cache.create () in
  Httpsim.File_cache.add_document cache ~path:Harness.doc_path ~bytes:1024;
  Httpsim.File_cache.add_document cache ~path:Harness.cgi_path ~bytes:0;
  Httpsim.File_cache.warm cache;
  let cgi = Httpsim.Cgi.create ~stack ~server_process:server_proc () in
  let listen = Socket.make_unbound_listen ~port:Harness.default_port (Container.run root) in
  let server =
    Httpsim.Event_server.create ~stack ~process:server_proc ~cache
      ~dynamic_handler:(Httpsim.Cgi.handler cgi) ~listens:[ listen ] ()
  in
  ignore (Httpsim.Event_server.start server);
  let static =
    Workload.Sclient.create ~stack ~port:Harness.default_port ~path:Harness.doc_path ~count:24
      ()
  in
  let cgi_clients =
    Workload.Sclient.create ~stack ~src_base:(Netsim.Ipaddr.v 10 2 0 1)
      ~port:Harness.default_port ~path:Harness.cgi_path ~syn_timeout:(Simtime.sec 60)
      ~count:concurrent_cgi ()
  in
  Workload.Sclient.start static;
  Workload.Sclient.start cgi_clients;
  Machine.run_until machine (Simtime.add (Sim.now sim) warmup);
  Workload.Sclient.reset_stats static;
  let server_container = Procsim.Process.default_container server_proc in
  let cpu0 = Container.subtree_cpu server_container in
  Machine.run_until machine (Simtime.add (Sim.now sim) measure);
  let share =
    Simtime.ratio (Simtime.span_sub (Container.subtree_cpu server_container) cpu0) measure
  in
  let tput =
    float_of_int (Workload.Sclient.completed static) /. Simtime.span_to_sec_f measure
  in
  (share, tput)

let softirq_charging_table ?warmup ?measure ?(concurrent_cgi = 4) () =
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
  let share_system, tput_system =
    server_share_with ~softirq_charge:Netsim.Stack.Charge_system ?warmup ?measure
      ~concurrent_cgi ()
  in
  let share_current, tput_current =
    server_share_with ~softirq_charge:Netsim.Stack.Charge_current ?warmup ?measure
      ~concurrent_cgi ()
  in
  Engine.Series.add_row t
    [
      "no process at all (system)";
      Printf.sprintf "%.1f%%" (100. *. share_system);
      Printf.sprintf "%.0f" tput_system;
    ];
  Engine.Series.add_row t
    [
      "the unlucky current process";
      Printf.sprintf "%.1f%%" (100. *. share_current);
      Printf.sprintf "%.0f" tput_current;
    ];
  t
