module Simtime = Engine.Simtime
module Jsonx = Engine.Jsonx
module Socket = Netsim.Socket
module Event_server = Httpsim.Event_server
module Sclient = Workload.Sclient

type point = { system : Harness.system; clients : int; seed : int }

type result = {
  point : point;
  throughput : float;
  mean_ms : float;
  p99_ms : float;
  completed : int;
}

let grid ?(client_counts = [ 4; 16 ]) ?(seeds = [ 1; 2 ]) () =
  Array.of_list
    (List.concat_map
       (fun system ->
         List.concat_map
           (fun clients -> List.map (fun seed -> { system; clients; seed }) seeds)
           client_counts)
       [ Harness.Unmodified; Harness.Lrp_sys; Harness.Rc_sys ])

(* One grid point is a complete closed-loop run: all randomness (client
   think-time jitter) comes from the point's own seed, so the result is a
   pure function of the point — the property the jobs-determinism test
   leans on. *)
let run ?(cpus = 1) ?(warmup = Simtime.sec 1) ?(measure = Simtime.sec 2)
    { system; clients; seed } =
  let rig = Harness.make_rig ~cpus system in
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
      ~jitter:(Simtime.ms 1) ~seed ~count:clients ()
  in
  Sclient.start load;
  Harness.run_for rig warmup;
  Sclient.reset_stats load;
  Harness.run_for rig measure;
  let completed = Sclient.completed load in
  {
    point = { system; clients; seed };
    throughput = float_of_int completed /. Simtime.span_to_sec_f measure;
    mean_ms = Engine.Stats.Summary.mean (Sclient.response_times load);
    p99_ms = Sclient.response_percentile load 0.99;
    completed;
  }

let run_grid ?cpus ?warmup ?measure ?(jobs = 1) points =
  Harness.Sweep.map ~jobs (run ?cpus ?warmup ?measure) points

let result_to_json r =
  Jsonx.Obj
    [
      ("system", Jsonx.String (Harness.system_name r.point.system));
      ("clients", Jsonx.Int r.point.clients);
      ("seed", Jsonx.Int r.point.seed);
      ("throughput_rps", Jsonx.Float r.throughput);
      ("mean_ms", Jsonx.Float r.mean_ms);
      ("p99_ms", Jsonx.Float r.p99_ms);
      ("completed", Jsonx.Int r.completed);
    ]

(* The report must be byte-identical for any [jobs]: results are emitted
   in grid order and contain nothing environment-dependent (no wall-clock
   time, no job count, no hostname). *)
let report_json results =
  Jsonx.Obj
    [
      ("schema_version", Jsonx.Int 1);
      ("experiment", Jsonx.String "sweep");
      ("results", Jsonx.List (Array.to_list (Array.map result_to_json results)));
    ]

let report_string results = Jsonx.to_string (report_json results) ^ "\n"
