module Simtime = Engine.Simtime
module Socket = Netsim.Socket
module Event_server = Httpsim.Event_server
module Sclient = Workload.Sclient

type point = {
  clients : int;
  throughput : float;
  mean_ms : float;
  p50_ms : float;
  p99_ms : float;
}

let run ?(warmup = Simtime.sec 2) ?(measure = Simtime.sec 4) ?(persistent = false) system
    ~clients =
  let rig = Harness.make_rig system in
  let listen =
    Socket.make_unbound_listen ~port:Harness.default_port (Rescont.Container.run rig.Harness.root)
  in
  let server =
    Event_server.create ~stack:rig.Harness.stack ~process:rig.Harness.server_proc
      ~cache:rig.Harness.cache ~listens:[ listen ] ()
  in
  ignore (Event_server.start server);
  let load =
    Sclient.create ~stack:rig.Harness.stack ~port:Harness.default_port ~path:Harness.doc_path
      ~persistent ~jitter:(Simtime.ms 1) ~count:clients ()
  in
  Sclient.start load;
  Harness.run_for rig warmup;
  Sclient.reset_stats load;
  Harness.run_for rig measure;
  {
    clients;
    throughput = float_of_int (Sclient.completed load) /. Simtime.span_to_sec_f measure;
    mean_ms = Engine.Stats.Summary.mean (Sclient.response_times load);
    p50_ms = Sclient.response_percentile load 0.5;
    p99_ms = Sclient.response_percentile load 0.99;
  }

let figure ?(client_counts = [ 1; 2; 4; 8; 16; 32; 64 ]) ?warmup ?measure ?persistent
    ?(jobs = 1) system =
  let tput = Engine.Series.curve "throughput (req/s)" in
  let mean = Engine.Series.curve "mean (ms)" in
  let p50 = Engine.Series.curve "p50 (ms)" in
  let p99 = Engine.Series.curve "p99 (ms)" in
  let results =
    Harness.Sweep.map ~jobs
      (fun clients -> run ?warmup ?measure ?persistent system ~clients)
      (Array.of_list client_counts)
  in
  Array.iter
    (fun p ->
      let x = float_of_int p.clients in
      Engine.Series.add_point tput ~x ~y:p.throughput;
      Engine.Series.add_point mean ~x ~y:p.mean_ms;
      Engine.Series.add_point p50 ~x ~y:p.p50_ms;
      Engine.Series.add_point p99 ~x ~y:p.p99_ms)
    results;
  Engine.Series.figure
    ~title:
      (Printf.sprintf "Extension: latency vs offered load (%s kernel, 1KB cached)"
         (Harness.system_name system))
    ~x_label:"closed-loop clients" ~y_label:"req/s | ms" [ tput; mean; p50; p99 ]
