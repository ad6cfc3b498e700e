module Simtime = Engine.Simtime
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Usage = Rescont.Usage
module Socket = Netsim.Socket
module Disk = Disksim.Disk
module Sclient = Workload.Sclient

(* A Zipf-popular document set that does not fit the cache: 200 documents
   of 64 KB against a 4 MB cache (~60 resident), so the popular head hits
   and the tail misses to disk. *)
let doc_count = 200
let doc_bytes = 65_536

let make_cache () =
  let cache = Httpsim.File_cache.create ~capacity_bytes:(4 * 1024 * 1024) () in
  for i = 1 to doc_count do
    Httpsim.File_cache.add_document cache
      ~path:(Printf.sprintf "/doc/d%d" i)
      ~bytes:doc_bytes
  done;
  cache

let zipf_mix () =
  List.init doc_count (fun i ->
      let rank = float_of_int (i + 1) in
      (1. /. rank, Printf.sprintf "/doc/d%d" (i + 1)))

type arch_point = { architecture : string; throughput : float; mean_latency_ms : float }

let architecture_run ?(warmup = Simtime.sec 3) ?(measure = Simtime.sec 10) arch =
  let rig = Harness.make_rig Harness.Rc_sys in
  let cache = make_cache () in
  let disk = Disk.create ~machine:rig.Harness.machine () in
  let listen =
    Socket.make_unbound_listen ~port:Harness.default_port (Container.run rig.Harness.root)
  in
  let architecture =
    match arch with
    | `Event_driven ->
        let server =
          Httpsim.Event_server.create ~stack:rig.Harness.stack
            ~process:rig.Harness.server_proc ~cache ~disk ~listens:[ listen ] ()
        in
        ignore (Httpsim.Event_server.start server);
        "event-driven (1 thread)"
    | `Multi_threaded ->
        let server =
          Httpsim.Threaded_server.create ~stack:rig.Harness.stack
            ~process:rig.Harness.server_proc ~cache ~disk ~workers:16 ~listens:[ listen ] ()
        in
        Httpsim.Threaded_server.start server;
        "multi-threaded (16 threads)"
  in
  let clients =
    Sclient.create ~stack:rig.Harness.stack ~port:Harness.default_port ~path_mix:(zipf_mix ())
      ~syn_timeout:(Simtime.sec 30) ~count:16 ()
  in
  Sclient.start clients;
  Harness.run_for rig warmup;
  Sclient.reset_stats clients;
  Harness.run_for rig measure;
  {
    architecture;
    throughput = float_of_int (Sclient.completed clients) /. Simtime.span_to_sec_f measure;
    mean_latency_ms = Engine.Stats.Summary.mean (Sclient.response_times clients);
  }

let architecture_table () =
  let t =
    Engine.Series.table
      ~title:"Disk extension: server architecture under a cold cache (Zipf documents)"
      ~columns:[ "architecture"; "throughput (req/s)"; "mean latency (ms)" ]
  in
  List.iter
    (fun arch ->
      let p = architecture_run arch in
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
let pool_sweep ?(workers_list = [ 1; 2; 4; 8; 16; 32 ]) ?(warmup = Simtime.sec 3)
    ?(measure = Simtime.sec 8) () =
  let point workers =
    let rig = Harness.make_rig Harness.Rc_sys in
    let cache = make_cache () in
    let disk = Disk.create ~machine:rig.Harness.machine () in
    let listen =
    Socket.make_unbound_listen ~port:Harness.default_port (Container.run rig.Harness.root)
  in
    let server =
      Httpsim.Threaded_server.create ~stack:rig.Harness.stack
        ~process:rig.Harness.server_proc ~cache ~disk ~workers ~listens:[ listen ] ()
    in
    Httpsim.Threaded_server.start server;
    let clients =
      Sclient.create ~stack:rig.Harness.stack ~port:Harness.default_port
        ~path_mix:(zipf_mix ()) ~syn_timeout:(Simtime.sec 30) ~count:32 ()
    in
    Sclient.start clients;
    Harness.run_for rig warmup;
    Sclient.reset_stats clients;
    Harness.run_for rig measure;
    float_of_int (Sclient.completed clients) /. Simtime.span_to_sec_f measure
  in
  List.map (fun w -> (w, point w)) workers_list

let pool_table ?workers_list ?warmup ?measure () =
  let t =
    Engine.Series.table
      ~title:"Disk extension: worker-pool sizing (blocking reads, 32 clients)"
      ~columns:[ "worker threads"; "throughput (req/s)" ]
  in
  List.iter
    (fun (w, tput) ->
      Engine.Series.add_row t [ string_of_int w; Printf.sprintf "%.0f" tput ])
    (pool_sweep ?workers_list ?warmup ?measure ());
  t

type isolation_point = {
  premium_latency_ms : float;
  standard_latency_ms : float;
  premium_disk_share : float;
}

let isolation_run ?(warmup = Simtime.sec 3) ?(measure = Simtime.sec 10) () =
  let rig = Harness.make_rig Harness.Rc_sys in
  let cache = make_cache () in
  let disk = Disk.create ~machine:rig.Harness.machine () in
  let premium =
    Container.create ~parent:rig.Harness.root ~name:"disk-premium"
      ~attrs:(Attrs.timeshare ~priority:50 ())
      ()
  and standard =
    Container.create ~parent:rig.Harness.root ~name:"disk-standard"
      ~attrs:(Attrs.timeshare ~priority:10 ())
      ()
  in
  let premium_src = Netsim.Ipaddr.v 10 9 9 9 in
  let listens =
    [
      Socket.make_listen ~port:Harness.default_port
        ~filter:(Netsim.Filter.prefix ~template:premium_src ~bits:24)
        ~container:premium ();
      Socket.make_listen ~port:Harness.default_port ~container:standard ();
    ]
  in
  (* The threaded server overlaps disk reads, so the disk queue (not the
     CPU) is where the classes compete. *)
  let server =
    Httpsim.Threaded_server.create ~stack:rig.Harness.stack ~process:rig.Harness.server_proc
      ~cache ~disk ~workers:16 ~policy:Httpsim.Event_server.Inherit_listen ~listens ()
  in
  Httpsim.Threaded_server.start server;
  let vip =
    Sclient.create ~stack:rig.Harness.stack ~name:"vip" ~src_base:premium_src
      ~port:Harness.default_port ~path_mix:(zipf_mix ()) ~syn_timeout:(Simtime.sec 30)
      ~jitter:(Simtime.ms 1) ~seed:3 ~count:4 ()
  in
  let crowd =
    Sclient.create ~stack:rig.Harness.stack ~name:"crowd" ~src_base:(Netsim.Ipaddr.v 10 1 0 1)
      ~port:Harness.default_port ~path_mix:(zipf_mix ()) ~syn_timeout:(Simtime.sec 30)
      ~jitter:(Simtime.ms 1) ~seed:5 ~count:12 ()
  in
  Sclient.start vip;
  Sclient.start crowd;
  Harness.run_for rig warmup;
  Sclient.reset_stats vip;
  Sclient.reset_stats crowd;
  let premium_disk0 = Usage.disk_time (Container.usage premium) in
  let total_disk0 = Disk.busy_time disk in
  Harness.run_for rig measure;
  let premium_disk =
    Simtime.span_sub (Usage.disk_time (Container.usage premium)) premium_disk0
  in
  let total_disk = Simtime.span_sub (Disk.busy_time disk) total_disk0 in
  {
    premium_latency_ms = Engine.Stats.Summary.mean (Sclient.response_times vip);
    standard_latency_ms = Engine.Stats.Summary.mean (Sclient.response_times crowd);
    premium_disk_share = Simtime.ratio premium_disk (Simtime.span_max total_disk (Simtime.ns 1));
  }

let isolation_table () =
  let p = isolation_run () in
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
