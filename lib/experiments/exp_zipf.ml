module Simtime = Engine.Simtime
module Attrs = Rescont.Attrs
module Filter = Netsim.Filter
module Ipaddr = Netsim.Ipaddr

(* ROADMAP item 4, first scenario: Zipf-distributed popularity over
   10^5-10^6 documents with cache/disk eviction interplay and a flash
   crowd.  A guaranteed (premium) tenant and a best-effort crowd share one
   server whose cache holds ~1/8 of the corpus; misses go to the spindle.
   Mid-run a flash crowd arrives requesting documents {e uniformly} — the
   worst case for an LRU cache, since every request drags a cold tail
   document through it.  Under [Unmodified] the flash crowd's requests are
   served at equal priority: they thrash the cache and queue the disk, and
   the premium tenant collapses with them.  Under [Rc_sys] the premium
   container's priority holds at the CPU and the (container-aware) disk
   queue, and because the crowd is closed-loop its request rate — and so
   its cache-thrash rate — is throttled by its own starvation: scheduling
   QoS begets cache QoS. *)

let premium_base = Ipaddr.v 10 9 9 1

(* Document sizes cycle 1-8 KB so byte accounting (and the
   cache.bytes-consistency law) sees heterogeneous entries; the cache
   holds 1/8 of the corpus bytes. *)
let corpus ~docs =
  let c =
    { Scenario.docs; unit_bytes = 1024; classes = 8; capacity_bytes = 0; warm = false; disk = true }
  in
  { c with capacity_bytes = max 4096 (Scenario.corpus_bytes c / 8) }

type class_stats = { throughput : float; mean_ms : float }
type phase_stats = { premium : class_stats; crowd : class_stats; hit_rate : float }

type point = {
  system : Harness.system;
  docs : int;
  s : float;
  cache_frac : float; (* cache capacity / corpus bytes *)
  baseline : phase_stats; (* steady Zipf traffic *)
  spike : phase_stats; (* with the uniform flash crowd *)
  checks : int; (* invariant sweeps that ran during the point *)
}

(* The premium tenant holds a fixed-share {e guarantee} (40% of the CPU),
   not just a higher priority: the crowd runs freely in the timeshare
   residual until the flash crowd arrives, at which point the guarantee
   is what the RC system defends.  The flash crowd starts after the first
   window; Zipf with s = 0 is exactly the uniform categorical — its
   cache-worst-case request stream.  Cold start: the warmup traffic itself
   populates the cache with the popular head, the state the paper's
   warm-cache experiments assume. *)
let scenario ~docs ~s system =
  let load name src_base seed count s =
    {
      Scenario.group with
      name;
      src_base;
      docs = Zipf s;
      syn_timeout = Simtime.sec 30;
      jitter = Simtime.ms 1;
      seed;
      count;
    }
  in
  {
    Scenario.base with
    system;
    check_interval = Some (Simtime.ms 50);
    corpus = Some (corpus ~docs);
    containers =
      [
        { name = "zipf-premium"; parent = None; attrs = Attrs.fixed_share ~share:0.4 () };
        { name = "zipf-crowd"; parent = None; attrs = Attrs.timeshare ~priority:10 () };
      ];
    servers =
      [
        {
          Scenario.server with
          listens =
            [
              {
                Scenario.listen with
                bind = Named "zipf-premium";
                filter = Filter.prefix ~template:premium_base ~bits:24;
              };
              { Scenario.listen with bind = Named "zipf-crowd" };
            ];
          model = Threaded 16;
          policy = (if system = Harness.Rc_sys then Inherit_listen else Shared);
        };
      ];
    groups =
      [
        load "premium" premium_base 3 6 s;
        load "crowd" (Ipaddr.v 10 1 0 1) 5 12 s;
        { (load "flash" (Ipaddr.v 10 2 0 1) 7 40 0.) with after = 1 };
      ];
    warmup = Simtime.sec 1;
    windows = [ Simtime.sec 2; Simtime.sec 2 ];
  }

let run (sc : Scenario.t) =
  let o = Scenario.run sc in
  let phase (w : Scenario.window) =
    let stats name =
      { throughput = Scenario.throughput w name; mean_ms = (Scenario.stats w name).mean_ms }
    in
    let lookups = w.hits + w.misses in
    {
      premium = stats "premium";
      crowd = stats "crowd";
      hit_rate = (if lookups = 0 then 0. else float_of_int w.hits /. float_of_int lookups);
    }
  in
  let corpus = Option.get sc.corpus in
  match Scenario.measured o with
  | [ baseline; spike ] ->
      {
        system = sc.system;
        docs = corpus.docs;
        s = (match (List.hd sc.groups).docs with Zipf s -> s | Path _ | Zipf_cdf _ -> 0.);
        cache_frac =
          float_of_int corpus.capacity_bytes /. float_of_int (Scenario.corpus_bytes corpus);
        baseline = phase baseline;
        spike = phase spike;
        checks = o.checks;
      }
  | _ -> invalid_arg "Exp_zipf.run: a steady and a flash-crowd window"

let default_exponents = [ 0.6; 0.9; 1.1 ]
let systems = [ Harness.Rc_sys; Harness.Unmodified ]

let table points =
  let t =
    Engine.Series.table
      ~title:
        "Zipf corpus under a uniform flash crowd: premium QoS vs cache thrash \
         (throughput req/s, latency ms)"
      ~columns:
        [
          "system";
          "s";
          "phase";
          "premium req/s";
          "premium ms";
          "crowd req/s";
          "cache hit rate";
        ]
  in
  List.iter
    (fun p ->
      let row phase ps =
        Engine.Series.add_row t
          [
            Harness.system_name p.system;
            Printf.sprintf "%.1f" p.s;
            phase;
            Printf.sprintf "%.0f" ps.premium.throughput;
            Printf.sprintf "%.2f" ps.premium.mean_ms;
            Printf.sprintf "%.0f" ps.crowd.throughput;
            Printf.sprintf "%.1f%%" (100. *. ps.hit_rate);
          ]
      in
      row "steady" p.baseline;
      row "flash crowd" p.spike)
    points;
  t

let json ~docs points =
  let open Engine.Jsonx in
  let phase ps =
    Obj
      [
        ("premium_req_per_sec", Float ps.premium.throughput);
        ("premium_mean_ms", Float ps.premium.mean_ms);
        ("crowd_req_per_sec", Float ps.crowd.throughput);
        ("crowd_mean_ms", Float ps.crowd.mean_ms);
        ("cache_hit_rate", Float ps.hit_rate);
      ]
  in
  Obj
    [
      ("schema_version", Int 1);
      ("experiment", String "zipf");
      ("docs", Int docs);
      ( "qos",
        List
          (List.map
             (fun p ->
               Obj
                 [
                   ("system", String (Harness.system_name p.system));
                   ("s", Float p.s);
                   ("docs", Int p.docs);
                   ("cache_frac", Float p.cache_frac);
                   ("invariant_checks", Int p.checks);
                   ("baseline", phase p.baseline);
                   ("spike", phase p.spike);
                 ])
             points) );
    ]
