module Simtime = Engine.Simtime
module Jsonx = Engine.Jsonx

type point = { system : Harness.system; clients : int; seed : int }

type result = {
  point : point;
  throughput : float;
  mean_ms : float;
  p99_ms : float;
  completed : int;
}

let grid ~client_counts ~seeds =
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
let scenario { system; clients; seed } =
  {
    Scenario.base with
    system;
    groups = [ { Scenario.group with jitter = Simtime.ms 1; seed; count = clients } ];
    warmup = Simtime.sec 1;
    windows = [ Simtime.sec 2 ];
  }

let run (s : Scenario.t) =
  let w = Scenario.window (Scenario.run s) in
  let g = List.hd s.groups in
  let stats = Scenario.stats w g.name in
  {
    point = { system = s.system; clients = g.count; seed = g.seed };
    throughput = Scenario.throughput w g.name;
    mean_ms = stats.mean_ms;
    p99_ms = stats.p99_ms;
    completed = stats.completed;
  }

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
