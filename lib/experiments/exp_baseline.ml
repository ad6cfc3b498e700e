module Simtime = Engine.Simtime
module Sim = Engine.Sim
module Machine = Procsim.Machine
module Socket = Netsim.Socket
module Event_server = Httpsim.Event_server

type result = {
  persistent : bool;
  throughput : float;
  cpu_per_request_us : float;
  mean_latency_ms : float;
}

let run ?(clients = 32) ?(warmup = Simtime.sec 2) ?(measure = Simtime.sec 5) ~persistent () =
  let rig = Harness.make_rig Harness.Unmodified in
  let listen =
    Socket.make_unbound_listen ~port:Harness.default_port (Rescont.Container.run rig.Harness.root)
  in
  let server =
    Event_server.create ~stack:rig.Harness.stack ~process:rig.Harness.server_proc
      ~cache:rig.Harness.cache ~api:Event_server.Select ~listens:[ listen ] ()
  in
  ignore (Event_server.start server);
  let load =
    Workload.Sclient.create ~stack:rig.Harness.stack ~port:Harness.default_port
      ~path:Harness.doc_path ~persistent ~count:clients ()
  in
  Workload.Sclient.start load;
  Harness.run_for rig warmup;
  Workload.Sclient.reset_stats load;
  let busy0 = Machine.busy_time rig.Harness.machine in
  Harness.run_for rig measure;
  let requests = Workload.Sclient.completed load in
  let busy = Simtime.span_sub (Machine.busy_time rig.Harness.machine) busy0 in
  let throughput = float_of_int requests /. Simtime.span_to_sec_f measure in
  let cpu_per_request_us =
    if requests = 0 then 0. else Simtime.span_to_us_f busy /. float_of_int requests
  in
  let mean_latency_ms = Engine.Stats.Summary.mean (Workload.Sclient.response_times load) in
  { persistent; throughput; cpu_per_request_us; mean_latency_ms }

let table () =
  let t =
    Engine.Series.table ~title:"Baseline throughput (paper §5.3, unmodified kernel, 1KB cached)"
      ~columns:
        [ "connection mode"; "throughput (req/s)"; "paper (req/s)"; "CPU/request (us)";
          "paper (us)"; "mean latency (ms)" ]
  in
  let row r =
    Engine.Series.add_row t
      [
        (if r.persistent then "persistent (HTTP/1.1)" else "connection per request");
        Printf.sprintf "%.0f" r.throughput;
        (if r.persistent then "9487" else "2954");
        Printf.sprintf "%.1f" r.cpu_per_request_us;
        (if r.persistent then "105" else "338");
        Printf.sprintf "%.2f" r.mean_latency_ms;
      ]
  in
  row (run ~persistent:false ());
  row (run ~persistent:true ());
  t
