module Simtime = Engine.Simtime
module Attrs = Rescont.Attrs

(* A Zipf-popular document set that does not fit the cache: 200 documents
   of 64 KB against a 4 MB cache (~60 resident), so the popular head hits
   and the tail misses to disk. *)
let corpus =
  {
    Scenario.docs = 200;
    unit_bytes = 65_536;
    classes = 1;
    capacity_bytes = 4 * 1024 * 1024;
    warm = false;
    disk = true;
  }

let clients ~count =
  { Scenario.group with docs = Zipf_cdf 1.; syn_timeout = Simtime.sec 30; count }

let disk_base =
  { Scenario.base with corpus = Some corpus; warmup = Simtime.sec 3; windows = [ Simtime.sec 10 ] }

let with_model model = [ { Scenario.server with model } ]

type arch_point = { architecture : string; throughput : float; mean_latency_ms : float }

let architecture_scenario arch =
  {
    disk_base with
    servers =
      with_model (match arch with `Event_driven -> Event Select | `Multi_threaded -> Threaded 16);
    groups = [ clients ~count:16 ];
  }

let architecture_run (s : Scenario.t) =
  let w = Scenario.window (Scenario.run s) in
  {
    architecture =
      (match (List.hd s.servers).model with
      | Threaded n -> Printf.sprintf "multi-threaded (%d threads)" n
      | Event _ | Forked _ -> "event-driven (1 thread)");
    throughput = Scenario.throughput w "clients";
    mean_latency_ms = (Scenario.stats w "clients").mean_ms;
  }

let architecture_table () =
  let t =
    Engine.Series.table
      ~title:"Disk extension: server architecture under a cold cache (Zipf documents)"
      ~columns:[ "architecture"; "throughput (req/s)"; "mean latency (ms)" ]
  in
  List.iter
    (fun arch ->
      let p = architecture_run (architecture_scenario arch) in
      Engine.Series.add_row t
        [
          p.architecture;
          Printf.sprintf "%.0f" p.throughput;
          Printf.sprintf "%.1f" p.mean_latency_ms;
        ])
    [ `Event_driven; `Multi_threaded ];
  t

(* Worker-pool sizing: with blocking disk reads, throughput rises with
   the pool until enough requests overlap the spindle, then flattens. *)
let pool_table ~workers_list =
  let t =
    Engine.Series.table
      ~title:"Disk extension: worker-pool sizing (blocking reads, 32 clients)"
      ~columns:[ "worker threads"; "throughput (req/s)" ]
  in
  List.iter
    (fun workers ->
      let s =
        {
          disk_base with
          servers = with_model (Threaded workers);
          groups = [ clients ~count:32 ];
          windows = [ Simtime.sec 8 ];
        }
      in
      let tput = Scenario.throughput (Scenario.window (Scenario.run s)) "clients" in
      Engine.Series.add_row t [ string_of_int workers; Printf.sprintf "%.0f" tput ])
    workers_list;
  t

type isolation_point = {
  premium_latency_ms : float;
  standard_latency_ms : float;
  premium_disk_share : float;
}

(* The threaded server overlaps disk reads, so the disk queue (not the
   CPU) is where the classes compete. *)
let isolation_scenario =
  let premium_src = Netsim.Ipaddr.v 10 9 9 9 in
  let load name src_base seed count =
    { (clients ~count) with name; src_base; jitter = Simtime.ms 1; seed }
  in
  {
    disk_base with
    containers =
      [
        { name = "disk-premium"; parent = None; attrs = Attrs.timeshare ~priority:50 () };
        { name = "disk-standard"; parent = None; attrs = Attrs.timeshare ~priority:10 () };
      ];
    servers =
      [
        {
          Scenario.server with
          listens =
            [
              {
                Scenario.listen with
                bind = Named "disk-premium";
                filter = Netsim.Filter.prefix ~template:premium_src ~bits:24;
              };
              { Scenario.listen with bind = Named "disk-standard" };
            ];
          model = Threaded 16;
          policy = Inherit_listen;
        };
      ];
    groups =
      [ load "vip" premium_src 3 4; load "crowd" (Netsim.Ipaddr.v 10 1 0 1) 5 12 ];
  }

let isolation_run s =
  let w = Scenario.window (Scenario.run s) in
  {
    premium_latency_ms = (Scenario.stats w "vip").mean_ms;
    standard_latency_ms = (Scenario.stats w "crowd").mean_ms;
    premium_disk_share =
      Simtime.ratio (Scenario.usage_of w "disk-premium").disk
        (Simtime.span_max w.disk_busy (Simtime.ns 1));
  }

let isolation_table () =
  let p = isolation_run isolation_scenario in
  let t =
    Engine.Series.table
      ~title:"Disk extension: container-priority disk scheduling (miss-heavy load)"
      ~columns:[ "client class"; "mean latency (ms)"; "share of disk time" ]
  in
  Engine.Series.add_row t
    [
      "premium (priority 50, 4 clients)";
      Printf.sprintf "%.1f" p.premium_latency_ms;
      Printf.sprintf "%.1f%%" (100. *. p.premium_disk_share);
    ];
  Engine.Series.add_row t
    [
      "standard (priority 10, 12 clients)";
      Printf.sprintf "%.1f" p.standard_latency_ms;
      "rest";
    ];
  t
