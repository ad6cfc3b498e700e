(* Tests for Httpsim: cost calibration, HTTP encoding, the file cache,
   and the server applications end-to-end on a small rig. *)

module Simtime = Engine.Simtime
module Sim = Engine.Sim
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Machine = Procsim.Machine
module Process = Procsim.Process
module Socket = Netsim.Socket
module Stack = Netsim.Stack
module Http = Httpsim.Http
module Costs = Httpsim.Costs
module File_cache = Httpsim.File_cache

(* {1 Costs — the calibration the whole reproduction rests on} *)

let test_cost_budgets () =
  let us span = Simtime.span_to_us_f span in
  (* Paper §5.3: 105 us and 338 us per request.  Allow 7% slack: the
     budget excludes the load-dependent event-notification overhead. *)
  let persistent = us Costs.persistent_request_total in
  Alcotest.(check bool) "persistent ~105us" true (persistent > 95. && persistent < 112.);
  let nonpersistent = us Costs.nonpersistent_request_total in
  Alcotest.(check bool) "conn-per-request ~338us" true
    (nonpersistent > 315. && nonpersistent < 360.)

let test_syn_costs () =
  let us span = Simtime.span_to_us_f span in
  (* Fig 14: collapse at ~10k SYN/s means ~100us per unfiltered SYN; the
     filtered overhead must be ~3.9us (73% residual at 70k SYN/s). *)
  let unfiltered = us Costs.unfiltered_syn_total in
  Alcotest.(check bool) "unfiltered ~99us" true (unfiltered > 90. && unfiltered < 110.);
  let filtered = us Costs.filtered_syn_total in
  Alcotest.(check bool) "filtered ~3.9us" true (filtered > 3. && filtered < 5.)

let test_primitives_cheap () =
  Alcotest.(check bool) "worst primitive < 1% of a request" true
    (Experiments.Exp_table1.max_primitive_vs_request () < 0.011)

(* {1 Http} *)

let test_http_roundtrip () =
  let req = Http.request ~now:Simtime.zero ~keep_alive:true ~path:"/doc/1k" () in
  let meta = Http.parse req in
  Alcotest.(check string) "path" "/doc/1k" meta.Http.path;
  Alcotest.(check bool) "keep alive" true meta.Http.keep_alive;
  let req10 = Http.request ~now:Simtime.zero ~path:"/x" () in
  Alcotest.(check bool) "HTTP/1.0 default" false (Http.parse req10).Http.keep_alive

let test_http_dynamic () =
  Alcotest.(check bool) "cgi path" true (Http.is_dynamic (Http.meta_of_path "/cgi/run"));
  Alcotest.(check bool) "static path" false (Http.is_dynamic (Http.meta_of_path "/doc/1k"));
  Alcotest.(check bool) "short path" false (Http.is_dynamic (Http.meta_of_path "/x"))

let test_http_parse_error () =
  let bogus = Netsim.Payload.make ~tag:"hello" ~bytes:10 Simtime.zero in
  Alcotest.(check bool) "garbage rejected" true
    (try ignore (Http.parse bogus); false with Invalid_argument _ -> true)

(* Any byte string survives the request line, including spaces and a
   path that itself ends in a version. *)
let prop_http_path_roundtrip =
  let path =
    QCheck.Gen.(
      let body = string_size ~gen:(frequency [ (1, return ' '); (4, char) ]) (0 -- 24) in
      frequency [ (4, body); (1, map (fun p -> p ^ " HTTP/1.1") body) ])
  in
  QCheck.Test.make ~name:"http parse inverts request on any path" ~count:300
    QCheck.(pair (make ~print:(Printf.sprintf "%S") path) bool)
    (fun (path, keep_alive) ->
      let meta = Http.parse (Http.request ~now:Simtime.zero ~keep_alive ~path ()) in
      String.equal meta.Http.path path
      && meta.Http.doc = Httpsim.Docset.find_id path
      && meta.Http.keep_alive = keep_alive)

let test_http_response_size () =
  let meta = Http.meta_of_path "/doc/1k" in
  let resp = Http.response ~now:Simtime.zero meta ~body_bytes:1024 in
  Alcotest.(check int) "body plus headers" (1024 + Http.header_bytes) resp.Netsim.Payload.bytes

(* {1 Docset interning} *)

let test_docset_interning () =
  let module Docset = Httpsim.Docset in
  let id = Docset.intern "/docset-test/a" in
  Alcotest.(check int) "idempotent" id (Docset.intern "/docset-test/a");
  Alcotest.(check int) "find_id agrees" id (Docset.find_id "/docset-test/a");
  Alcotest.(check string) "path_of round-trips" "/docset-test/a" (Docset.path_of id);
  Alcotest.(check int) "unknown path is -1" (-1) (Docset.find_id "/docset-test/never-interned");
  let id2 = Docset.intern "/docset-test/b" in
  Alcotest.(check bool) "distinct paths, distinct ids" true (id <> id2);
  Alcotest.(check bool) "size covers both" true (Docset.size () > max id id2)

let test_http_doc_ids () =
  (* The request carries the interned id end to end: building by path and
     building by id produce payloads that parse to the same metadata. *)
  let by_path = Http.request ~now:Simtime.zero ~keep_alive:true ~path:"/doc-id/x" () in
  let meta = Http.parse by_path in
  Alcotest.(check int) "meta.doc is the interned id" (Httpsim.Docset.find_id "/doc-id/x")
    meta.Http.doc;
  let by_doc = Http.request_doc ~now:Simtime.zero ~keep_alive:true ~doc:meta.Http.doc () in
  let meta' = Http.parse by_doc in
  Alcotest.(check string) "path survives the id round-trip" meta.Http.path meta'.Http.path;
  Alcotest.(check int) "doc survives" meta.Http.doc meta'.Http.doc;
  Alcotest.(check bool) "unknown id rejected" true
    (try
       ignore (Http.request_doc ~now:Simtime.zero ~doc:max_int ());
       false
     with Invalid_argument _ -> true)

(* {1 File_cache} *)

let test_cache_hit_miss () =
  let cache = File_cache.create () in
  File_cache.add_document cache ~path:"/a" ~bytes:100;
  (match File_cache.lookup cache ~path:"/a" with
  | File_cache.Miss n -> Alcotest.(check int) "cold miss" 100 n
  | _ -> Alcotest.fail "expected miss");
  (match File_cache.lookup cache ~path:"/a" with
  | File_cache.Hit n -> Alcotest.(check int) "warm hit" 100 n
  | _ -> Alcotest.fail "expected hit");
  Alcotest.(check bool) "not found" true (File_cache.lookup cache ~path:"/zzz" = File_cache.Not_found_doc);
  Alcotest.(check int) "hit count" 1 (File_cache.hits cache);
  Alcotest.(check int) "miss count" 1 (File_cache.misses cache)

let test_cache_warm () =
  let cache = File_cache.create () in
  File_cache.add_document cache ~path:"/a" ~bytes:100;
  File_cache.add_document cache ~path:"/b" ~bytes:200;
  File_cache.warm cache;
  Alcotest.(check int) "bytes cached" 300 (File_cache.cached_bytes cache);
  (match File_cache.lookup cache ~path:"/b" with
  | File_cache.Hit _ -> ()
  | _ -> Alcotest.fail "warm lookup should hit")

let test_cache_lru_eviction () =
  let cache = File_cache.create ~capacity_bytes:250 () in
  File_cache.add_document cache ~path:"/a" ~bytes:100;
  File_cache.add_document cache ~path:"/b" ~bytes:100;
  File_cache.add_document cache ~path:"/c" ~bytes:100;
  ignore (File_cache.lookup cache ~path:"/a");
  ignore (File_cache.lookup cache ~path:"/b");
  (* /a is LRU; loading /c must evict it. *)
  ignore (File_cache.lookup cache ~path:"/c");
  Alcotest.(check bool) "capacity respected" true (File_cache.cached_bytes cache <= 250);
  (match File_cache.lookup cache ~path:"/a" with
  | File_cache.Miss _ -> ()
  | _ -> Alcotest.fail "/a should have been evicted")

let test_cache_lookup_cost () =
  Alcotest.(check bool) "hit cost" true
    (File_cache.lookup_cost (File_cache.Hit 1) = Costs.cache_hit);
  Alcotest.(check bool) "miss cost" true
    (File_cache.lookup_cost (File_cache.Miss 1) = Costs.cache_miss)

(* {1 Server rigs} *)

let make_rig mode =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let policy =
    match mode with
    | Stack.Softirq | Stack.Lrp -> Sched.Timeshare.make ()
    | Stack.Rc -> Sched.Multilevel.make ~root ()
  in
  let machine = Machine.create ~sim ~policy:(fun () -> policy) ~root () in
  let proc = Process.create machine ~name:"httpd" () in
  let stack = Stack.create ~machine ~mode ~owner:(Process.default_container proc) () in
  let cache = File_cache.create () in
  File_cache.add_document cache ~path:"/doc/1k" ~bytes:1024;
  File_cache.add_document cache ~path:"/cgi/run" ~bytes:0;
  File_cache.warm cache;
  (sim, root, machine, proc, stack, cache)

let run machine sim span = Machine.run_until machine (Simtime.add (Sim.now sim) span)

let test_event_server_serves () =
  let sim, root, machine, proc, stack, cache = make_rig Stack.Rc in
  let listen = Socket.make_unbound_listen ~port:80 (Container.run root) in
  let server =
    Httpsim.Event_server.create ~stack ~process:proc ~cache ~listens:[ listen ] ()
  in
  ignore (Httpsim.Event_server.start server);
  let clients = Workload.Sclient.create ~stack ~port:80 ~path:"/doc/1k" ~count:4 () in
  Workload.Sclient.start clients;
  run machine sim (Simtime.sec 1);
  Alcotest.(check bool) "served many" true (Httpsim.Event_server.static_served server > 100);
  Alcotest.(check bool) "clients completed" true (Workload.Sclient.completed clients > 100);
  (* Accepts may exceed completions by the handful of in-flight
     connections at measurement end. *)
  Alcotest.(check bool) "no leaked conns" true
    (Httpsim.Event_server.accepts server - Workload.Sclient.completed clients <= 8)

let test_event_server_persistent () =
  let sim, root, machine, proc, stack, cache = make_rig Stack.Rc in
  let listen = Socket.make_unbound_listen ~port:80 (Container.run root) in
  let server =
    Httpsim.Event_server.create ~stack ~process:proc ~cache ~listens:[ listen ] ()
  in
  ignore (Httpsim.Event_server.start server);
  let clients =
    Workload.Sclient.create ~stack ~port:80 ~path:"/doc/1k" ~persistent:true
      ~requests_per_conn:8 ~count:2 ()
  in
  Workload.Sclient.start clients;
  run machine sim (Simtime.sec 1);
  let served = Httpsim.Event_server.static_served server in
  Alcotest.(check bool) "served" true (served > 100);
  (* Persistent connections: far fewer accepts than requests. *)
  Alcotest.(check bool) "conn reuse" true (Httpsim.Event_server.accepts server * 4 < served)

let test_event_server_per_connection_containers () =
  let sim, root, machine, proc, stack, cache = make_rig Stack.Rc in
  let listen = Socket.make_unbound_listen ~port:80 (Container.run root) in
  let server =
    Httpsim.Event_server.create ~stack ~process:proc ~cache
      ~policy:(Httpsim.Event_server.Per_connection { parent = root; priority_of = (fun _ -> 10) })
      ~listens:[ listen ] ()
  in
  ignore (Httpsim.Event_server.start server);
  let clients = Workload.Sclient.create ~stack ~port:80 ~path:"/doc/1k" ~count:2 () in
  Workload.Sclient.start clients;
  run machine sim (Simtime.ms 500);
  Alcotest.(check bool) "served" true (Httpsim.Event_server.static_served server > 20);
  (* Per-connection containers are destroyed when connections close: the
     root should not accumulate children beyond the open set. *)
  Alcotest.(check bool) "containers reclaimed" true
    (List.length (Container.children root) < 10)

let test_cgi_fork_sandbox () =
  let sim, root, machine, proc, stack, cache = make_rig Stack.Rc in
  let cgi_parent =
    Container.create ~parent:root ~name:"cgi-parent"
      ~attrs:(Attrs.fixed_share ~share:0.3 ~cpu_limit:0.3 ())
      ()
  in
  let cgi =
    Httpsim.Cgi.create ~stack ~server_process:proc ~cgi_parent
      ~compute:(Simtime.ms 200) ()
  in
  let listen = Socket.make_unbound_listen ~port:80 (Container.run root) in
  let server =
    Httpsim.Event_server.create ~stack ~process:proc ~cache
      ~dynamic_handler:(Httpsim.Cgi.handler cgi) ~listens:[ listen ] ()
  in
  ignore (Httpsim.Event_server.start server);
  let got_response = ref false in
  Stack.connect stack ~src:(Netsim.Ipaddr.v 10 0 0 5) ~port:80
    ~handlers:
      {
        Socket.null_handlers with
        Socket.on_established =
          (fun conn ->
            Stack.client_send stack conn (Http.request ~now:(Sim.now sim) ~path:"/cgi/run" ()));
        on_response = (fun _ _ -> got_response := true);
      }
    ();
  run machine sim (Simtime.sec 2);
  Alcotest.(check bool) "cgi response arrived" true !got_response;
  Alcotest.(check int) "one cgi completed" 1 (Httpsim.Cgi.completed cgi);
  Alcotest.(check int) "one process spawned" 1 (Httpsim.Cgi.processes_spawned cgi);
  (* The 200ms of compute were charged inside the sandbox. *)
  Alcotest.(check bool) "sandbox charged" true
    (Simtime.span_to_ns (Container.subtree_cpu cgi_parent) >= 200_000_000)

let test_cgi_persistent_pool () =
  let sim, root, machine, proc, stack, cache = make_rig Stack.Rc in
  let cgi =
    Httpsim.Cgi.create ~stack ~server_process:proc ~compute:(Simtime.ms 50)
      ~mode:(Httpsim.Cgi.Persistent_pool 2) ()
  in
  let listen = Socket.make_unbound_listen ~port:80 (Container.run root) in
  let server =
    Httpsim.Event_server.create ~stack ~process:proc ~cache
      ~dynamic_handler:(Httpsim.Cgi.handler cgi) ~listens:[ listen ] ()
  in
  ignore (Httpsim.Event_server.start server);
  let clients =
    Workload.Sclient.create ~stack ~port:80 ~path:"/cgi/run" ~syn_timeout:(Simtime.sec 30)
      ~count:3 ()
  in
  Workload.Sclient.start clients;
  run machine sim (Simtime.sec 2);
  Alcotest.(check bool) "many jobs completed" true (Httpsim.Cgi.completed cgi > 10);
  Alcotest.(check int) "pool size respected" 2 (Httpsim.Cgi.processes_spawned cgi)

let test_forked_server_serves () =
  let sim, root, machine, proc, stack, cache = make_rig Stack.Rc in
  let listen = Socket.make_unbound_listen ~port:80 (Container.run root) in
  let server =
    Httpsim.Forked_server.create ~stack ~master:proc ~cache ~workers:4
      ~policy:(Httpsim.Event_server.Per_connection { parent = root; priority_of = (fun _ -> 10) })
      ~listens:[ listen ] ()
  in
  Httpsim.Forked_server.start server;
  let clients = Workload.Sclient.create ~stack ~port:80 ~path:"/doc/1k" ~count:3 () in
  Workload.Sclient.start clients;
  run machine sim (Simtime.sec 1);
  Alcotest.(check bool) "served" true (Httpsim.Forked_server.served server > 50);
  Alcotest.(check bool) "workers return to pool" true
    (Httpsim.Forked_server.idle_workers server >= 1);
  Alcotest.(check int) "no stuck backlog" 0 (Httpsim.Forked_server.backlog server)

let test_forked_server_worker_limit () =
  (* More concurrent connections than workers: the master queues them and
     every request is still answered. *)
  let sim, root, machine, proc, stack, cache = make_rig Stack.Rc in
  let listen = Socket.make_unbound_listen ~port:80 (Container.run root) in
  let server =
    Httpsim.Forked_server.create ~stack ~master:proc ~cache ~workers:2 ~listens:[ listen ] ()
  in
  Httpsim.Forked_server.start server;
  let clients = Workload.Sclient.create ~stack ~port:80 ~path:"/doc/1k" ~count:6 () in
  Workload.Sclient.start clients;
  run machine sim (Simtime.sec 1);
  Alcotest.(check bool) "all clients progress" true (Workload.Sclient.completed clients > 100);
  Alcotest.(check int) "no timeouts" 0 (Workload.Sclient.timeouts clients)

(* Regression: a dynamic request through the threaded server must reach
   the client — the worker hands the connection to the CGI engine and must
   not close it underneath. *)
let test_threaded_server_cgi_detach () =
  let sim, root, machine, proc, stack, cache = make_rig Stack.Rc in
  let cgi =
    Httpsim.Cgi.create ~stack ~server_process:proc ~compute:(Simtime.ms 20) ()
  in
  let listen = Socket.make_unbound_listen ~port:80 (Container.run root) in
  let server =
    Httpsim.Threaded_server.create ~stack ~process:proc ~cache ~workers:4
      ~dynamic_handler:(Httpsim.Cgi.handler cgi) ~listens:[ listen ] ()
  in
  Httpsim.Threaded_server.start server;
  let got = ref 0 in
  Stack.connect stack ~src:(Netsim.Ipaddr.v 10 0 0 9) ~port:80
    ~handlers:
      {
        Socket.null_handlers with
        Socket.on_established =
          (fun conn ->
            Stack.client_send stack conn (Http.request ~now:(Sim.now sim) ~path:"/cgi/run" ()));
        on_response = (fun _ _ -> incr got);
      }
    ();
  run machine sim (Simtime.ms 500);
  Alcotest.(check int) "cgi response delivered" 1 !got;
  Alcotest.(check int) "job completed" 1 (Httpsim.Cgi.completed cgi)

(* §4.8: "The server can use the resource container associated with a
   listening socket to set the priority of accepting new connections
   relative to servicing the existing ones."  Under overload, a
   low-priority listen keeps existing persistent clients fast at the cost
   of new-connection churn; a high-priority listen does the opposite. *)
let existing_latency_with_listen_priority priority =
  let sim, root, machine, proc, stack, cache = make_rig Stack.Rc in
  (* Existing clients (10.1/16) keep a normal-priority container; the
     catch-all listen socket for newcomers carries the priority under
     test. *)
  let existing_c =
    Container.create ~parent:root ~name:"existing" ~attrs:(Attrs.timeshare ~priority:10 ()) ()
  in
  let newcomers_c =
    Container.create ~parent:root ~name:"newcomers" ~attrs:(Attrs.timeshare ~priority ()) ()
  in
  let listens =
    [
      Socket.make_listen ~port:80
        ~filter:(Netsim.Filter.prefix ~template:(Netsim.Ipaddr.v 10 1 0 0) ~bits:16)
        ~container:existing_c ();
      Socket.make_listen ~port:80 ~container:newcomers_c ();
    ]
  in
  let server =
    Httpsim.Event_server.create ~stack ~process:proc ~cache
      ~api:Httpsim.Event_server.Event_api ~policy:Httpsim.Event_server.Inherit_listen
      ~listens ()
  in
  ignore (Httpsim.Event_server.start server);
  (* Established workload: persistent clients already connected... *)
  let existing =
    Workload.Sclient.create ~stack ~name:"existing" ~port:80 ~path:"/doc/1k" ~persistent:true
      ~requests_per_conn:1_000_000 ~count:8 ()
  in
  Workload.Sclient.start existing;
  run machine sim (Simtime.ms 500);
  (* ...then a storm of connection-per-request newcomers. *)
  let churn =
    Workload.Sclient.create ~stack ~name:"churn" ~src_base:(Netsim.Ipaddr.v 10 2 0 1) ~port:80
      ~path:"/doc/1k" ~count:24 ()
  in
  Workload.Sclient.start churn;
  run machine sim (Simtime.ms 500);
  Workload.Sclient.reset_stats existing;
  run machine sim (Simtime.sec 2);
  Workload.Sclient.completed existing

let test_accept_vs_existing_priority () =
  let favoured = existing_latency_with_listen_priority 1 in
  let disfavoured = existing_latency_with_listen_priority 80 in
  Alcotest.(check bool)
    (Printf.sprintf
       "low-priority accepts protect existing clients' throughput (%d > 2x %d)" favoured
       disfavoured)
    true
    (favoured > 2 * disfavoured)

let test_unknown_document_404 () =
  let sim, root, machine, proc, stack, cache = make_rig Stack.Rc in
  let listen = Socket.make_unbound_listen ~port:80 (Container.run root) in
  let server =
    Httpsim.Event_server.create ~stack ~process:proc ~cache ~listens:[ listen ] ()
  in
  ignore (Httpsim.Event_server.start server);
  let got = ref None in
  Stack.connect stack ~src:(Netsim.Ipaddr.v 10 0 0 1) ~port:80
    ~handlers:
      {
        Socket.null_handlers with
        Socket.on_established =
          (fun conn ->
            Stack.client_send stack conn
              (Http.request ~now:(Sim.now sim) ~path:"/no/such/thing" ()));
        on_response = (fun _ p -> got := Some p.Netsim.Payload.bytes);
      }
    ();
  run machine sim (Simtime.ms 50);
  (* A short error body plus headers, not a hang or a crash. *)
  Alcotest.(check (option int)) "small error response" (Some (80 + Http.header_bytes)) !got

(* The semantic difference between the two event APIs (paper §5.5): with
   select() a poll round serves the whole ready batch; with the scalable
   event API one priority-ordered event is served per round, so a
   high-priority event is never stuck behind a batch. *)
let test_event_api_priority_ordering () =
  let sim, root, machine, proc, stack, cache = make_rig Stack.Rc in
  let hi = Container.create ~parent:root ~name:"hi" ~attrs:(Attrs.timeshare ~priority:90 ()) () in
  let lo = Container.create ~parent:root ~name:"lo" ~attrs:(Attrs.timeshare ~priority:10 ()) () in
  let hi_src = Netsim.Ipaddr.v 10 9 9 9 in
  let listens =
    [
      Socket.make_listen ~port:80 ~filter:(Netsim.Filter.host hi_src) ~container:hi ();
      Socket.make_listen ~port:80 ~container:lo ();
    ]
  in
  let server =
    Httpsim.Event_server.create ~stack ~process:proc ~cache
      ~api:Httpsim.Event_server.Event_api ~policy:Httpsim.Event_server.Inherit_listen ~listens
      ()
  in
  ignore (Httpsim.Event_server.start server);
  let lo_clients =
    Workload.Sclient.create ~stack ~name:"lo" ~port:80 ~path:"/doc/1k" ~count:12 ()
  in
  let hi_client =
    Workload.Sclient.create ~stack ~name:"hi" ~src_base:hi_src ~port:80 ~path:"/doc/1k"
      ~jitter:(Simtime.ms 1) ~count:1 ()
  in
  Workload.Sclient.start lo_clients;
  Workload.Sclient.start hi_client;
  run machine sim (Simtime.sec 1);
  Workload.Sclient.reset_stats hi_client;
  Workload.Sclient.reset_stats lo_clients;
  run machine sim (Simtime.sec 2);
  let hi_lat = Engine.Stats.Summary.mean (Workload.Sclient.response_times hi_client) in
  let lo_lat = Engine.Stats.Summary.mean (Workload.Sclient.response_times lo_clients) in
  Alcotest.(check bool) "saturated by low class" true (lo_lat > 2. *. hi_lat);
  Alcotest.(check bool) "high stays near service time" true (hi_lat < 2.)

(* §4.8's first worked example: a long file transfer accumulates usage in
   its per-connection container, so threads serving other connections are
   preferred and small requests stay fast. *)
let test_long_transfer_does_not_starve () =
  let sim, root, machine, proc, stack, cache = make_rig Stack.Rc in
  File_cache.add_document cache ~path:"/big/4m" ~bytes:4_000_000;
  File_cache.warm cache;
  let listen = Socket.make_unbound_listen ~port:80 (Container.run root) in
  let server =
    Httpsim.Threaded_server.create ~stack ~process:proc ~cache ~workers:8
      ~policy:(Httpsim.Event_server.Per_connection { parent = root; priority_of = (fun _ -> 10) })
      ~listens:[ listen ] ()
  in
  Httpsim.Threaded_server.start server;
  (* One heavy downloader (each response costs ~70ms of send-path CPU)
     against four small-file clients. *)
  let heavy =
    Workload.Sclient.create ~stack ~name:"heavy" ~src_base:(Netsim.Ipaddr.v 10 8 0 1) ~port:80
      ~path:"/big/4m" ~syn_timeout:(Simtime.sec 30) ~count:1 ()
  in
  let light =
    Workload.Sclient.create ~stack ~name:"light" ~port:80 ~path:"/doc/1k" ~count:4 ()
  in
  Workload.Sclient.start heavy;
  Workload.Sclient.start light;
  run machine sim (Simtime.sec 1);
  Workload.Sclient.reset_stats light;
  run machine sim (Simtime.sec 2);
  Alcotest.(check bool) "transfers are flowing" true (Workload.Sclient.completed heavy >= 5);
  let light_latency = Engine.Stats.Summary.mean (Workload.Sclient.response_times light) in
  Alcotest.(check bool) "small requests stay fast beside a 70ms-CPU transfer" true
    (light_latency < 5.)

let test_threaded_server_serves () =
  let sim, root, machine, proc, stack, cache = make_rig Stack.Rc in
  let listen = Socket.make_unbound_listen ~port:80 (Container.run root) in
  let server =
    Httpsim.Threaded_server.create ~stack ~process:proc ~cache ~workers:4
      ~policy:(Httpsim.Event_server.Per_connection { parent = root; priority_of = (fun _ -> 10) })
      ~listens:[ listen ] ()
  in
  Httpsim.Threaded_server.start server;
  let clients = Workload.Sclient.create ~stack ~port:80 ~path:"/doc/1k" ~count:3 () in
  Workload.Sclient.start clients;
  run machine sim (Simtime.sec 1);
  Alcotest.(check bool) "served" true (Httpsim.Threaded_server.served server > 50);
  Alcotest.(check bool) "accepts tracked" true (Httpsim.Threaded_server.accepts server > 50)

(* {1 The event API's single-pass pick}

   The event API serves one event per poll: the head of the ready set
   sorted by priority, accepts before data at equal priority, then
   listens in order and connections in fd order.  The server finds it in
   one read-only pass; the select() path's fill-and-sort stays the
   oracle.  The rig mixes everything the pass must order: connection
   priorities from the source prefix (15, 10, 5), listens at 12, 10 and
   10 (the last two tie with each other and with data), CGI requests
   whose connections the CGI closes behind the server's back ([Closed]
   while still tracked), and clients that hang up before being served
   ([Close_wait], some with a request still queued). *)

module Es = Httpsim.Event_server

let prefix_priority conn =
  let src = conn.Socket.src in
  let within third =
    Netsim.Ipaddr.in_prefix src ~template:(Netsim.Ipaddr.v 10 0 third 0) ~bits:24
  in
  if within 1 then 15 else if within 2 then 5 else 10

let pick_rig () =
  let sim, root, machine, proc, stack, cache = make_rig Stack.Rc in
  let listen_container priority =
    Container.create ~parent:root ~attrs:(Attrs.timeshare ~priority ()) ()
  in
  let l80 = Socket.make_listen ~port:80 ~container:(listen_container 12) () in
  let l81 = Socket.make_listen ~port:81 ~container:(listen_container 10) () in
  let l82 = Socket.make_listen ~port:82 ~container:(listen_container 10) () in
  let cgi_parent =
    Container.create ~parent:root ~name:"cgi" ~attrs:(Attrs.fixed_share ~share:0.3 ()) ()
  in
  let cgi =
    Httpsim.Cgi.create ~stack ~server_process:proc ~cgi_parent ~compute:(Simtime.us 700) ()
  in
  let server =
    Es.create ~stack ~process:proc ~cache ~api:Es.Event_api
      ~policy:(Es.Per_connection { parent = root; priority_of = prefix_priority })
      ~dynamic_handler:(Httpsim.Cgi.handler cgi) ~listens:[ l80; l81; l82 ] ()
  in
  ignore (Es.start server);
  let clients ~third ~port ?path_mix count =
    Workload.Sclient.start
      (Workload.Sclient.create ~stack ~src_base:(Netsim.Ipaddr.v 10 0 third 1) ~port ?path_mix
         ~jitter:(Simtime.us 300) ~seed:third ~count ())
  in
  clients ~third:1 ~port:80 ~path_mix:[ (0.7, "/doc/1k"); (0.3, "/cgi/run") ] 6;
  clients ~third:2 ~port:80 6;
  clients ~third:3 ~port:81 ~path_mix:[ (0.8, "/doc/1k"); (0.2, "/cgi/run") ] 6;
  clients ~third:5 ~port:82 4;
  (* Hang-ups: every 2 ms a client connects to alternating ports and
     closes at once, every other one after sending a request. *)
  let k = ref 0 in
  ignore
    (Sim.every sim (Simtime.ms 2) (fun () ->
         incr k;
         let send = !k land 1 = 0 in
         Stack.connect stack
           ~src:(Netsim.Ipaddr.v 10 0 4 (!k mod 250))
           ~port:(if !k land 2 = 0 then 80 else 81)
           ~handlers:
             {
               Socket.null_handlers with
               Socket.on_established =
                 (fun conn ->
                   if send then
                     Stack.client_send stack conn
                       (Http.request ~now:(Sim.now sim) ~path:"/doc/1k" ());
                   Stack.client_close stack conn);
             }
           ()));
  (sim, machine, server, l80, l81, l82)

let test_event_api_pick_is_sorted_head () =
  let sim, machine, server, l80, l81, l82 = pick_rig () in
  let multi = ref 0 and accept_heads = ref 0 and data_heads = ref 0 in
  let closed = ref 0 and close_wait = ref 0 and unequal_listens = ref 0 in
  let accept_ties = ref 0 and listen_ties = ref 0 and data_ties = ref 0 in
  let mixed_prios = ref 0 in
  let describe = function
    | None -> "none"
    | Some (prio, Es.Accept l) -> Printf.sprintf "accept port %d prio %d" l.Socket.port prio
    | Some (prio, Es.Data c) -> Printf.sprintf "data conn %d prio %d" c.Socket.conn_id prio
  in
  let same a b =
    match (a, b) with
    | None, None -> true
    | Some (p, Es.Accept l), Some (q, Es.Accept m) -> p = q && l == m
    | Some (p, Es.Data c), Some (q, Es.Data d) -> p = q && c == d
    | (None | Some _), _ -> false
  in
  let probe () =
    let ready, pick = Es.pick_for_testing server in
    let sorted = Es.sorted_for_testing server in
    let head = match sorted with [] -> None | e :: _ -> Some e in
    if ready <> List.length sorted || not (same pick head) then
      Alcotest.failf "at %a: single pass found %d ready, %s; fill-and-sort %d ready, %s"
        Simtime.pp (Sim.now sim) ready (describe pick) (List.length sorted) (describe head);
    if ready > 1 then incr multi;
    (match head with
    | Some (_, Es.Accept _) -> incr accept_heads
    | Some (_, Es.Data _) -> incr data_heads
    | None -> ());
    let accepting l =
      List.exists (function _, Es.Accept m -> m == l | _, Es.Data _ -> false) sorted
    in
    if accepting l80 && (accepting l81 || accepting l82) then incr unequal_listens;
    List.iter
      (function
        | _, Es.Data c -> (
            match c.Socket.state with
            | Socket.Closed -> incr closed
            | Socket.Close_wait -> incr close_wait
            | Socket.Established | Socket.Syn_rcvd -> ())
        | _, Es.Accept _ -> ())
      sorted;
    match sorted with
    | (p, Es.Accept _) :: (q, Es.Accept _) :: _ when p = q ->
        incr listen_ties
    | (p, Es.Accept _) :: (q, _) :: _ when p = q -> incr accept_ties
    | (p, Es.Data _) :: (q, _) :: _ when p = q -> incr data_ties
    | (p, _) :: rest when List.exists (fun (q, _) -> q <> p) rest -> incr mixed_prios
    | _ -> ()
  in
  ignore (Sim.every sim (Simtime.us 13) probe);
  run machine sim (Simtime.ms 400);
  let seen what n = Alcotest.(check bool) (Printf.sprintf "%s (%d)" what n) true (n > 0) in
  Alcotest.(check bool) "served" true (Es.static_served server > 100);
  seen "probes with several ready" !multi;
  seen "accept heads" !accept_heads;
  seen "data heads" !data_heads;
  seen "listens of different priorities ready" !unequal_listens;
  seen "Closed conns ready" !closed;
  seen "Close_wait conns ready" !close_wait;
  seen "accept tied with data" !accept_ties;
  seen "accept tied with accept" !listen_ties;
  seen "data tied with the runner-up" !data_ties;
  seen "mixed priorities" !mixed_prios

(* A poll reads every open connection but allocates nothing. *)
let test_event_api_poll_allocates_nothing () =
  let sim, root, _, proc, stack, cache = make_rig Stack.Rc in
  (* Accepts outrank data, so the server accepts all 64 before serving
     any, and at that instant every connection has a request waiting. *)
  let listen =
    Socket.make_listen ~port:80
      ~container:(Container.create ~parent:root ~attrs:(Attrs.timeshare ~priority:20 ()) ())
      ()
  in
  let server =
    Es.create ~stack ~process:proc ~cache ~api:Es.Event_api
      ~policy:(Es.Per_connection { parent = root; priority_of = (fun _ -> 10) })
      ~listens:[ listen ] ()
  in
  ignore (Es.start server);
  for i = 0 to 63 do
    Stack.connect stack ~src:(Netsim.Ipaddr.v 10 3 0 i) ~port:80
      ~handlers:
        {
          Socket.null_handlers with
          Socket.on_established =
            (fun conn ->
              Stack.client_send stack conn (Http.request ~now:(Sim.now sim) ~path:"/doc/1k" ()));
        }
      ()
  done;
  (* Event by event: the instant lasts only until the server's next
     recv. *)
  let rec settle steps =
    if Es.open_conns server < 64
       || Es.scan_for_testing server < 64
    then
      if steps = 0 || not (Sim.step sim) then
        Alcotest.fail "64 connections never became ready together"
      else settle (steps - 1)
  in
  settle 1_000_000;
  ignore (Gc.minor_words ());
  let w0 = Gc.minor_words () in
  let ready = Es.scan_for_testing server in
  let w1 = Gc.minor_words () in
  Alcotest.(check int) "ready" 64 ready;
  Alcotest.(check (float 0.)) "minor words per poll" 0. (w1 -. w0)

let suite =
  [
    Alcotest.test_case "cost budgets (§5.3)" `Quick test_cost_budgets;
    Alcotest.test_case "SYN costs (fig 14)" `Quick test_syn_costs;
    Alcotest.test_case "primitives cheap (table 1)" `Quick test_primitives_cheap;
    Alcotest.test_case "http roundtrip" `Quick test_http_roundtrip;
    Alcotest.test_case "http dynamic detection" `Quick test_http_dynamic;
    Alcotest.test_case "http parse error" `Quick test_http_parse_error;
    QCheck_alcotest.to_alcotest prop_http_path_roundtrip;
    Alcotest.test_case "http response size" `Quick test_http_response_size;
    Alcotest.test_case "docset interning" `Quick test_docset_interning;
    Alcotest.test_case "http doc ids" `Quick test_http_doc_ids;
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache warm" `Quick test_cache_warm;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache lookup cost" `Quick test_cache_lookup_cost;
    Alcotest.test_case "event server serves" `Quick test_event_server_serves;
    Alcotest.test_case "event server persistent" `Quick test_event_server_persistent;
    Alcotest.test_case "per-connection containers" `Quick test_event_server_per_connection_containers;
    Alcotest.test_case "cgi fork sandbox" `Quick test_cgi_fork_sandbox;
    Alcotest.test_case "cgi persistent pool" `Quick test_cgi_persistent_pool;
    Alcotest.test_case "forked server" `Quick test_forked_server_serves;
    Alcotest.test_case "forked server queues beyond pool" `Quick test_forked_server_worker_limit;
    Alcotest.test_case "threaded server" `Quick test_threaded_server_serves;
    Alcotest.test_case "long transfer (§4.8)" `Quick test_long_transfer_does_not_starve;
    Alcotest.test_case "event API priority ordering" `Quick test_event_api_priority_ordering;
    Alcotest.test_case "threaded server CGI detach" `Quick test_threaded_server_cgi_detach;
    Alcotest.test_case "accept vs existing priority (§4.8)" `Quick
      test_accept_vs_existing_priority;
    Alcotest.test_case "unknown document 404" `Quick test_unknown_document_404;
    Alcotest.test_case "event API pick is the sorted head" `Quick
      test_event_api_pick_is_sorted_head;
    Alcotest.test_case "event API poll allocates nothing" `Quick
      test_event_api_poll_allocates_nothing;
  ]
