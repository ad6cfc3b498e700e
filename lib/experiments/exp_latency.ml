module Simtime = Engine.Simtime

let figure ~client_counts ~measure ~jobs system =
  let windows =
    Harness.Sweep.map ~jobs
      (fun clients ->
        Scenario.window
          (Scenario.run
             {
               (Exp_sweep.scenario { system; clients; seed = 42 }) with
               warmup = Simtime.sec 2;
               windows = [ measure ];
             }))
      (Array.of_list client_counts)
  in
  let curve name y =
    Engine.Series.curve_of_points name
      (List.mapi (fun i clients -> (float_of_int clients, y windows.(i))) client_counts)
  in
  let stats w = Scenario.stats w "clients" in
  Engine.Series.figure
    ~title:
      (Printf.sprintf "Extension: latency vs offered load (%s kernel, 1KB cached)"
         (Harness.system_name system))
    ~x_label:"closed-loop clients" ~y_label:"req/s | ms"
    [
      curve "throughput (req/s)" (fun w -> Scenario.throughput w "clients");
      curve "mean (ms)" (fun w -> (stats w).mean_ms);
      curve "p50 (ms)" (fun w -> (stats w).p50_ms);
      curve "p99 (ms)" (fun w -> (stats w).p99_ms);
    ]
