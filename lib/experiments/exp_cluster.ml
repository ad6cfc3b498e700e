(* Cluster experiments: the multi-machine rig validated against queueing
   closed forms, plus the balancer-policy scenarios.

   [oracle] is the correctness anchor for the whole cluster layer.  The
   worker-pool server approximates processor sharing (many workers, small
   quantum), arrivals are Poisson, and consistent hashing on the flow
   hash splits the stream by per-arrival Bernoulli thinning — so every
   machine is approximately an M/G/1-PS station, whose mean response time
   has the insensitive closed form

       E[T](rho) = T0 / (1 - rho)

   with T0 the mean in-sojourn demand (measured once at near-zero load)
   and rho the measured per-machine utilisation.  A simulator bug
   anywhere in the path — balancing, steering, queueing, charging, the
   scheduler — shows up as a deviation from the curve.  The gate point
   runs 10^5+ concurrent connections (clients hold connections open after
   their response) and must match within 5%.

   [clone_pair] checks the replicated-dispatch (cloning) bound: issuing
   every request to d machines and taking the first response can only
   help, provided the per-machine load is held equal — E[min of d iid
   sojourns] <= E[single sojourn].

   [qos_table] is the differentiated-QoS scenario: one machine is
   SYN-flooded; least-connections balancing sees the flooded machine's
   half-open connections (tracked from SYN, §5.7) and routes around it,
   while round-robin keeps feeding it. *)

module Simtime = Engine.Simtime
module Dist = Engine.Dist
module Stats = Engine.Stats
module Machine = Procsim.Machine
module Ipaddr = Netsim.Ipaddr
module Cluster = Clustersim.Cluster
module Synflood = Workload.Synflood

(* --- the M/G/1-PS oracle -------------------------------------------- *)

type oracle_point = {
  op_machines : int;
  op_rate : float;  (* aggregate arrivals/s *)
  op_rho : float;  (* completion-weighted mean utilisation *)
  op_concurrent : int;  (* peak concurrent connections in the window *)
  op_completed : int;
  op_measured_ms : float;  (* mean request sojourn in the server *)
  op_predicted_ms : float;  (* T0 / (1 - rho), completion-weighted *)
  op_err_pct : float;
}

let service_mean_us = 400.

let make_oracle_cluster ?(shards = 1) ?window ?ring_bits ~machines ~rate ~hold ~seed () =
  let policy = if machines = 1 then Cluster.Round_robin else Cluster.Flow_hash in
  Cluster.create ~machines ~shards ?window ?ring_bits ~policy
    ~profile:(Cluster.Poisson rate)
    ~service:(Dist.exponential ~mean:(service_mean_us *. 1000.))
    ~hold ~seed ()

type calibration = {
  cal_t0 : float;  (* mean in-sojourn demand, seconds *)
  cal_demand : float;  (* total CPU demand per request, seconds *)
}

(* Near-zero load: the mean sojourn IS the mean in-sojourn demand (the
   request's own parse + service + write + its share of kernel rx/tx
   work), with no contention to inflate it.  Total demand per request —
   including the handshake, accept and teardown work that happens outside
   the request's sojourn — comes from the busy-time counter and is what
   utilisation targeting needs: with the default 400 us service the
   simulated kernel spends ~0.9 ms of CPU per request end to end. *)
let oracle_seed = 42

let calibrate () =
  let c =
    make_oracle_cluster ~machines:1 ~rate:50. ~hold:Simtime.span_zero ~seed:oracle_seed ()
  in
  Cluster.start c;
  Cluster.run_for c (Simtime.sec 1);
  Cluster.reset_stats c;
  let busy0 = Machine.busy_time (Cluster.node_machine c 0) in
  Cluster.run_for c (Simtime.sec 4);
  let busy =
    Simtime.span_to_sec_f (Simtime.span_sub (Machine.busy_time (Cluster.node_machine c 0)) busy0)
  in
  {
    cal_t0 = Stats.Summary.mean (Cluster.server_sojourn c);
    cal_demand = busy /. float_of_int (Cluster.completed c);
  }

let oracle_point ~machines ?shards ~rate ~hold ~warmup ~measure ~t0 () =
  let c = make_oracle_cluster ?shards ~machines ~rate ~hold ~seed:oracle_seed () in
  Cluster.start c;
  Cluster.run_for c warmup;
  Cluster.reset_stats c;
  let busy0 =
    Array.init machines (fun i -> Machine.busy_time (Cluster.node_machine c i))
  in
  Cluster.run_for c measure;
  let w = Simtime.span_to_sec_f measure in
  (* Per-machine prediction (the hash ring's shares are uneven, so each
     machine runs at its own rho), averaged with completion weights. *)
  let num = ref 0. and den = ref 0 and rho_num = ref 0. in
  for i = 0 to machines - 1 do
    let served = Cluster.node_served c i in
    if served > 0 then begin
      let busy =
        Simtime.span_to_sec_f
          (Simtime.span_sub (Machine.busy_time (Cluster.node_machine c i)) busy0.(i))
      in
      let rho = Float.min 0.99 (busy /. w) in
      num := !num +. (float_of_int served *. (t0 /. (1. -. rho)));
      rho_num := !rho_num +. (float_of_int served *. rho);
      den := !den + served
    end
  done;
  let predicted = !num /. float_of_int !den in
  let rho = !rho_num /. float_of_int !den in
  let measured = Stats.Summary.mean (Cluster.server_sojourn c) in
  {
    op_machines = machines;
    op_rate = rate;
    op_rho = rho;
    op_concurrent = Cluster.peak_concurrent c;
    op_completed = Cluster.completed c;
    op_measured_ms = measured *. 1e3;
    op_predicted_ms = predicted *. 1e3;
    op_err_pct = 100. *. Float.abs (measured -. predicted) /. predicted;
  }

type oracle_result = { o_t0_ms : float; o_points : oracle_point list }

(* The response-time curve: per-machine arrival rate chosen for target
   utilisations via the calibrated per-request demand, all at hold 0 (the
   gate point with its 10^5 held connections runs separately —
   [gate_point]). *)
let oracle_curve ?(machines = 4) ?shards ?(rhos = [ 0.3; 0.5; 0.7 ])
    ?(warmup = Simtime.sec 2) ?(measure = Simtime.sec 6) () =
  let cal = calibrate () in
  let points =
    List.map
      (fun rho ->
        let rate = float_of_int machines *. rho /. cal.cal_demand in
        oracle_point ~machines ?shards ~rate ~hold:Simtime.span_zero ~warmup ~measure
          ~t0:cal.cal_t0 ())
      rhos
  in
  { o_t0_ms = cal.cal_t0 *. 1e3; o_points = points }

(* The acceptance gate: >= 10^5 concurrent connections (rate x hold), a
   moderate per-machine utilisation (~0.62 at ~0.9 ms demand per
   request), and the closed form within 5%. *)
let gate_point ?shards () =
  let cal = calibrate () in
  oracle_point ~machines:16 ?shards ~rate:10_800. ~hold:(Simtime.sec 10)
    ~warmup:(Simtime.sec 11) ~measure:(Simtime.sec 8) ~t0:cal.cal_t0 ()

(* --- the 10^6-concurrent-connection run ------------------------------ *)

type mega_point = {
  mp_machines : int;
  mp_shards : int;
  mp_domains : int;
  mp_rate : float;  (* aggregate arrivals/s *)
  mp_hold_s : float;
  mp_sim_seconds : float;  (* simulated seconds executed (warmup + measure) *)
  mp_peak_concurrent : int;
  mp_issued : int;
  mp_completed : int;
  mp_refused : int;
  mp_evicted : int;
}

(* The scale demonstration: ~10^6 concurrent connections (rate x hold =
   52,000/s x 20 s = 1.04M held open in steady state) across 64 machines,
   executed sharded.  A 2 ms dispatch window keeps the barrier count in
   the thousands rather than the hundreds of thousands (the window is the
   modeled balancer->machine dispatch latency, so widening it is a
   scenario choice, not an approximation — determinism holds at any
   width).  ring_bits 21 because more than 2^20 requests are in flight
   over a hold period.  Wall-clock measurement is the caller's business
   (the bench harness wraps this); the point itself reports simulated
   scale. *)
let mega_point () =
  let machines = 64 and rate = 52_000. and hold = Simtime.sec 20 in
  let warmup = Simtime.sec 21 and measure = Simtime.sec 6 in
  let c =
    make_oracle_cluster ~shards:8 ~window:(Simtime.ms 2) ~ring_bits:21 ~machines ~rate ~hold
      ~seed:2026 ()
  in
  Cluster.start c;
  Cluster.run_for c warmup;
  Cluster.reset_stats c;
  Cluster.run_for c measure;
  {
    mp_machines = machines;
    mp_shards = Cluster.shards c;
    mp_domains = Cluster.domains c;
    mp_rate = rate;
    mp_hold_s = Simtime.span_to_sec_f hold;
    mp_sim_seconds = Simtime.span_to_sec_f (Simtime.span_add warmup measure);
    mp_peak_concurrent = Cluster.peak_concurrent c;
    mp_issued = Cluster.issued c;
    mp_completed = Cluster.completed c;
    mp_refused = Cluster.refused c;
    mp_evicted = Cluster.evicted c;
  }

let oracle_table { o_t0_ms; o_points } =
  let t =
    Engine.Series.table
      ~title:
        (Printf.sprintf
           "Cluster vs M/G/1-PS closed form (flow-hash balancing, T0 = %.3f ms)" o_t0_ms)
      ~columns:
        [ "machines"; "rate/s"; "rho"; "peak conns"; "completed"; "measured ms";
          "predicted ms"; "err" ]
  in
  List.iter
    (fun p ->
      Engine.Series.add_row t
        [
          string_of_int p.op_machines;
          Printf.sprintf "%.0f" p.op_rate;
          Printf.sprintf "%.2f" p.op_rho;
          string_of_int p.op_concurrent;
          string_of_int p.op_completed;
          Printf.sprintf "%.3f" p.op_measured_ms;
          Printf.sprintf "%.3f" p.op_predicted_ms;
          Printf.sprintf "%.1f%%" p.op_err_pct;
        ])
    o_points;
  t

let point_json p =
  Engine.Jsonx.Obj
    [
      ("machines", Engine.Jsonx.Int p.op_machines);
      ("rate_per_sec", Engine.Jsonx.Float p.op_rate);
      ("rho", Engine.Jsonx.Float p.op_rho);
      ("peak_concurrent", Engine.Jsonx.Int p.op_concurrent);
      ("completed", Engine.Jsonx.Int p.op_completed);
      ("measured_ms", Engine.Jsonx.Float p.op_measured_ms);
      ("predicted_ms", Engine.Jsonx.Float p.op_predicted_ms);
      ("err_pct", Engine.Jsonx.Float p.op_err_pct);
    ]

let oracle_json ?gate { o_t0_ms; o_points } =
  Engine.Jsonx.Obj
    ([ ("t0_ms", Engine.Jsonx.Float o_t0_ms);
       ("points", Engine.Jsonx.List (List.map point_json o_points)) ]
    @ match gate with Some g -> [ ("gate", point_json g) ] | None -> [])

(* --- the cloning bound ---------------------------------------------- *)

type clone_pair = {
  c_single_ms : float;  (* mean client sojourn, single dispatch *)
  c_replicated_ms : float;  (* mean client sojourn, 2 clones, first wins *)
  c_single_completed : int;
  c_replicated_completed : int;
  c_ratio : float;
}

(* Same per-machine replica load on both sides: single dispatch at rate
   lambda vs 2 clones per request at rate lambda/2 — each machine sees
   lambda/N connection arrivals either way, so any client-side sojourn
   difference is the cloning effect (min of two iid sojourns), not a load
   difference.  Network constants appear on both sides and cancel in the
   comparison. *)
let clone_pair ?(measure = Simtime.sec 4) () =
  let rate = 2_400. in
  let run policy rate =
    let c =
      Cluster.create ~machines:4 ~policy ~profile:(Cluster.Poisson rate)
        ~service:(Dist.exponential ~mean:(service_mean_us *. 1000.))
        ~seed:1_234 ()
    in
    Cluster.start c;
    Cluster.run_for c (Simtime.sec 1);
    Cluster.reset_stats c;
    Cluster.run_for c measure;
    (Stats.Summary.mean (Cluster.client_sojourn c), Cluster.completed c)
  in
  let single_ms, single_n = run Cluster.Round_robin rate in
  let rep_ms, rep_n = run (Cluster.Replicate 2) (rate /. 2.) in
  {
    c_single_ms = single_ms *. 1e3;
    c_replicated_ms = rep_ms *. 1e3;
    c_single_completed = single_n;
    c_replicated_completed = rep_n;
    c_ratio = rep_ms /. single_ms;
  }

let clone_table p =
  let t =
    Engine.Series.table
      ~title:
        "Replicated dispatch (2 clones, first response wins) vs single dispatch at \
         equal per-machine load"
      ~columns:[ "dispatch"; "completed"; "mean client sojourn ms" ]
  in
  Engine.Series.add_row t
    [ "single"; string_of_int p.c_single_completed; Printf.sprintf "%.3f" p.c_single_ms ];
  Engine.Series.add_row t
    [
      "2 clones";
      string_of_int p.c_replicated_completed;
      Printf.sprintf "%.3f  (%.2fx)" p.c_replicated_ms p.c_ratio;
    ];
  t

(* --- differentiated QoS under a flooded machine ---------------------- *)

type qos_point = {
  q_policy : string;
  q_goodput : float;  (* completions/s *)
  q_sojourn_ms : float;  (* mean client sojourn *)
  q_flooded_share : float;  (* fraction of requests served by the flooded machine *)
  q_syn_drops : int;  (* on the flooded machine *)
}

(* One machine SYN-flooded from inside a tenant's own prefix (so the
   attack matches the tenant listen and fills its SYN queue).  Tracked
   connections include half-open ones, so least-connections sees the
   flood as load and routes around the machine; round-robin keeps
   sending every Nth request into it. *)
let flood_rate = 30_000.

let qos_run ~measure ~policy =
  let machines = 4 in
  let c =
    Cluster.create ~machines ~policy ~profile:(Cluster.Poisson 1_800.)
      ~service:(Dist.exponential ~mean:(service_mean_us *. 1000.))
      ~seed:77 ()
  in
  let flood =
    Synflood.create
      ~stack:(Cluster.node_stack c 0)
      ~src_base:(Ipaddr.offset (Cluster.tenant_prefix c 0) 1)
      ~src_count:256 ~port:80 ~rate_per_sec:flood_rate ()
  in
  Cluster.start c;
  Synflood.start flood;
  Cluster.run_for c (Simtime.sec 1);
  Cluster.reset_stats c;
  let served0 = Array.init machines (Cluster.node_served c) in
  Cluster.run_for c measure;
  Synflood.stop flood;
  let served =
    Array.init machines (fun i -> Cluster.node_served c i - served0.(i))
  in
  let total = Array.fold_left ( + ) 0 served in
  let name =
    match policy with
    | Cluster.Round_robin -> "round-robin"
    | Cluster.Least_conns -> "least-conns"
    | Cluster.Flow_hash -> "flow-hash"
    | Cluster.Replicate d -> Printf.sprintf "replicate-%d" d
  in
  {
    q_policy = name;
    q_goodput = float_of_int (Cluster.completed c) /. Simtime.span_to_sec_f measure;
    q_sojourn_ms = Stats.Summary.mean (Cluster.client_sojourn c) *. 1e3;
    q_flooded_share =
      (if total = 0 then 0. else float_of_int served.(0) /. float_of_int total);
    q_syn_drops = (Netsim.Stack.stats (Cluster.node_stack c 0)).Netsim.Stack.syn_queue_drops;
  }

let qos_table ?(measure = Simtime.sec 4) () =
  let t =
    Engine.Series.table
      ~title:"Balancer policy under a SYN-flooded machine (machine 0 attacked)"
      ~columns:
        [ "policy"; "goodput req/s"; "mean sojourn ms"; "flooded-machine share";
          "flooded SYN drops" ]
  in
  List.iter
    (fun policy ->
      let p = qos_run ~measure ~policy in
      Engine.Series.add_row t
        [
          p.q_policy;
          Printf.sprintf "%.0f" p.q_goodput;
          Printf.sprintf "%.3f" p.q_sojourn_ms;
          Printf.sprintf "%.0f%%" (100. *. p.q_flooded_share);
          string_of_int p.q_syn_drops;
        ])
    [ Cluster.Round_robin; Cluster.Least_conns ];
  t

(* --- tenant rollup table -------------------------------------------- *)

let tenant_table ?(measure = Simtime.sec 3) () =
  let machines = 4 in
  let tenants =
    [
      Cluster.tenant_spec "gold" ~weight:3
        ~attrs:(Rescont.Attrs.timeshare ~priority:30 ());
      Cluster.tenant_spec "bronze" ~weight:1
        ~attrs:(Rescont.Attrs.timeshare ~priority:10 ());
    ]
  in
  let c =
    Cluster.create ~machines ~profile:(Cluster.Poisson 4_000.) ~tenants ~seed:5 ()
  in
  Cluster.start c;
  Cluster.run_for c measure;
  let t =
    Engine.Series.table
      ~title:
        (Printf.sprintf
           "Cluster-wide tenant rollup over %d machines (3:1 arrival weights)" machines)
      ~columns:[ "tenant"; "cpu ms"; "rx KB"; "tx KB" ]
  in
  for k = 0 to Cluster.tenant_count c - 1 do
    let g = Cluster.tenant_group c k in
    Engine.Series.add_row t
      [
        Cluster.tenant_name c k;
        Printf.sprintf "%.1f" (float_of_int (Rescont.Rollup.cpu_ns g) /. 1e6);
        Printf.sprintf "%.0f" (float_of_int (Rescont.Rollup.rx_bytes g) /. 1024.);
        Printf.sprintf "%.0f" (float_of_int (Rescont.Rollup.tx_bytes g) /. 1024.);
      ]
  done;
  (match Cluster.rollup_law c with
  | Ok () -> ()
  | Error e -> failwith ("cluster.usage-rollup violated: " ^ e));
  t
