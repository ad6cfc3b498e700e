(* Tests for the observability layer: typed trace events exported as JSON
   lines, and the metrics registry's JSON snapshot agreeing with the
   in-process legacy views. *)

module Sim = Engine.Sim
module Simtime = Engine.Simtime
module Jsonx = Engine.Jsonx
module Metrics = Engine.Metrics
module Tracelog = Engine.Tracelog
module Container = Rescont.Container
module Machine = Procsim.Machine
module Process = Procsim.Process
module Stack = Netsim.Stack
module Socket = Netsim.Socket

(* A small traced HTTP scenario: RC stack, event server, two clients. *)
let run_scenario () =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let trace = Tracelog.create ~enabled:true ~capacity:8192 () in
  let machine =
    Machine.create ~sim ~policy:(fun () -> Sched.Multilevel.make ~root ()) ~root ~trace ()
  in
  let proc = Process.create machine ~name:"httpd" () in
  let stack =
    Stack.create ~machine ~mode:Stack.Rc ~owner:(Process.default_container proc) ()
  in
  let cache = Httpsim.File_cache.create () in
  Httpsim.File_cache.register_metrics cache (Machine.metrics machine);
  Httpsim.File_cache.add_document cache ~path:"/doc/1k" ~bytes:1024;
  Httpsim.File_cache.warm cache;
  let server =
    Httpsim.Event_server.create ~stack ~process:proc ~cache
      ~policy:Httpsim.Event_server.Inherit_listen
      ~listens:[ Socket.make_unbound_listen ~port:80 (Container.run root) ]
      ()
  in
  ignore (Httpsim.Event_server.start server);
  let clients = Workload.Sclient.create ~stack ~port:80 ~path:"/doc/1k" ~count:2 () in
  Workload.Sclient.start clients;
  Machine.run_until machine (Simtime.of_ns 50_000_000);
  (machine, stack, server, cache)

(* A small RC rig with a container per connection, so its trace carries
   container ids, process names (which embed the pid), listen and
   connection ids.  Returns the trace and what the run served. *)
let per_connection_run () =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let trace = Tracelog.create ~enabled:true ~capacity:8192 () in
  let machine =
    Machine.create ~sim ~policy:(fun () -> Sched.Multilevel.make ~root ()) ~root ~trace ()
  in
  let proc = Process.create machine ~name:"httpd" () in
  let stack =
    Stack.create ~machine ~mode:Stack.Rc ~owner:(Process.default_container proc) ()
  in
  let cache = Httpsim.File_cache.create () in
  Httpsim.File_cache.add_document cache ~path:"/doc/1k" ~bytes:1024;
  Httpsim.File_cache.warm cache;
  let vip = Container.create ~parent:root ~name:"vip" () in
  let server =
    Httpsim.Event_server.create ~stack ~process:proc ~cache ~api:Httpsim.Event_server.Event_api
      ~policy:(Httpsim.Event_server.Per_connection { parent = root; priority_of = (fun _ -> 10) })
      ~listens:
        [ Socket.make_unbound_listen ~port:80 (Container.run root);
          Socket.make_listen ~port:80 ~container:vip
            ~filter:(Netsim.Filter.prefix ~template:(Netsim.Ipaddr.v 10 9 0 0) ~bits:16)
            () ]
      ()
  in
  ignore (Httpsim.Event_server.start server);
  let clients = Workload.Sclient.create ~stack ~port:80 ~path:"/doc/1k" ~count:2 () in
  let vips =
    Workload.Sclient.create ~stack ~name:"vip" ~src_base:(Netsim.Ipaddr.v 10 9 0 1) ~port:80
      ~path:"/doc/1k" ~count:1 ()
  in
  Workload.Sclient.start clients;
  Workload.Sclient.start vips;
  Machine.run_until machine (Simtime.of_ns 30_000_000);
  ( Tracelog.to_jsonl (Machine.trace machine),
    (Workload.Sclient.completed clients, Workload.Sclient.completed vips,
     Simtime.span_to_ns (Container.subtree_cpu root)) )

(* A run is a pure function of its inputs: the same rig built again in
   the same process, after another rig, traces the same ids and serves
   the same requests. *)
let test_rig_repeats_after_other_rigs () =
  let trace1, served1 = per_connection_run () in
  ignore (run_scenario ());
  let trace2, served2 = per_connection_run () in
  Alcotest.(check (triple int int int)) "same results" served1 served2;
  let c1, v1, _ = served1 in
  Alcotest.(check bool) "both client groups served" true (c1 > 0 && v1 > 0);
  let mentions needle =
    let n = String.length needle and h = String.length trace1 in
    let rec at i = i + n <= h && (String.sub trace1 i n = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "trace carries per-connection containers" true
    (mentions "\"container\":\"conn-");
  Alcotest.(check string) "byte-equal trace JSONL" trace1 trace2

let parse_line line =
  match Jsonx.parse line with
  | Ok json -> json
  | Error msg -> Alcotest.failf "unparseable trace line %S: %s" line msg

let test_trace_jsonl_round_trip () =
  let machine, _stack, _server, _cache = run_scenario () in
  let jsonl = Tracelog.to_jsonl (Machine.trace machine) in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' jsonl)
  in
  Alcotest.(check bool) "trace is non-empty" true (List.length lines > 0);
  let categories = Hashtbl.create 8 in
  List.iter
    (fun line ->
      let json = parse_line line in
      (match Option.bind (Jsonx.member "t_ns" json) Jsonx.int_value with
      | Some t -> Alcotest.(check bool) "t_ns non-negative" true (t >= 0)
      | None -> Alcotest.failf "line lacks t_ns: %s" line);
      (match Option.bind (Jsonx.member "cat" json) Jsonx.string_value with
      | Some cat -> Hashtbl.replace categories cat ()
      | None -> Alcotest.failf "line lacks cat: %s" line);
      match Option.bind (Jsonx.member "type" json) Jsonx.string_value with
      | Some _ -> ()
      | None -> Alcotest.failf "line lacks type: %s" line)
    lines;
  (* The scenario exercises scheduling, networking and HTTP serving, so the
     trace must carry all three families of events. *)
  List.iter
    (fun cat ->
      Alcotest.(check bool) (Printf.sprintf "category %s present" cat) true
        (Hashtbl.mem categories cat))
    [ "dispatch"; "net"; "http" ]

(* Helper: find a metric sample by name (+ optional labels) in the parsed
   snapshot and return its "value" member. *)
let metric_value json name labels =
  let metrics = Option.fold ~none:[] ~some:Jsonx.to_list (Jsonx.member "metrics" json) in
  let wanted_labels = List.sort compare labels in
  let matches m =
    Option.bind (Jsonx.member "name" m) Jsonx.string_value = Some name
    &&
    let got =
      match Jsonx.member "labels" m with
      | Some (Jsonx.Obj kvs) ->
          List.sort compare
            (List.filter_map (fun (k, v) -> Option.map (fun s -> (k, s)) (Jsonx.string_value v)) kvs)
      | _ -> []
    in
    got = wanted_labels
  in
  match List.find_opt matches metrics with
  | Some m -> Jsonx.member "value" m
  | None -> Alcotest.failf "metric %s not found in snapshot" name

let test_metrics_snapshot_agrees () =
  let machine, stack, server, cache = run_scenario () in
  let json =
    Jsonx.parse_exn (Jsonx.to_string (Metrics.to_json (Machine.metrics machine)))
  in
  (match Option.bind (Jsonx.member "schema_version" json) Jsonx.int_value with
  | Some 1 -> ()
  | _ -> Alcotest.fail "schema_version 1 expected");
  let s = Stack.stats stack in
  let check_gauge name expected =
    match Option.bind (metric_value json name []) Jsonx.float_value with
    | Some v -> Alcotest.(check (float 1e-9)) name (float_of_int expected) v
    | None -> Alcotest.failf "gauge %s has no numeric value" name
  in
  Alcotest.(check bool) "scenario established connections" true (s.Stack.conns_established > 0);
  check_gauge "net.syns_received" s.Stack.syns_received;
  check_gauge "net.conns_established" s.Stack.conns_established;
  check_gauge "net.conns_closed" s.Stack.conns_closed;
  check_gauge "net.packets_processed" s.Stack.packets_processed;
  let check_counter name labels expected =
    match Option.bind (metric_value json name labels) Jsonx.int_value with
    | Some v -> Alcotest.(check int) name expected v
    | None -> Alcotest.failf "counter %s has no integer value" name
  in
  Alcotest.(check bool) "scenario served requests" true
    (Httpsim.Event_server.static_served server > 0);
  check_counter "http.static_served"
    [ ("server", "httpd") ]
    (Httpsim.Event_server.static_served server);
  check_counter "http.accepts" [ ("server", "httpd") ] (Httpsim.Event_server.accepts server);
  (match Option.bind (metric_value json "sched.dispatches" []) Jsonx.int_value with
  | Some v -> Alcotest.(check bool) "dispatches counted" true (v > 0)
  | None -> Alcotest.fail "sched.dispatches missing");
  match Option.bind (metric_value json "cache.hits" []) Jsonx.int_value with
  | Some v -> Alcotest.(check int) "cache hits view agrees" (Httpsim.File_cache.hits cache) v
  | None -> Alcotest.fail "cache.hits missing"

let test_registry_identity () =
  let m = Metrics.create () in
  let a = Metrics.counter m "reqs" in
  let b = Metrics.counter m "reqs" in
  Metrics.incr a;
  Metrics.incr b ~by:2;
  (* Same (name, labels) resolves to the same underlying counter... *)
  Alcotest.(check int) "shared counter" 3 (Metrics.counter_value a);
  (* ...while different labels are distinct series. *)
  let la = Metrics.counter m ~labels:[ ("srv", "a") ] "reqs.labeled" in
  let lb = Metrics.counter m ~labels:[ ("srv", "b") ] "reqs.labeled" in
  Metrics.incr la;
  Alcotest.(check int) "label a" 1 (Metrics.counter_value la);
  Alcotest.(check int) "label b" 0 (Metrics.counter_value lb);
  (* Label order does not matter. *)
  let l1 = Metrics.counter m ~labels:[ ("x", "1"); ("y", "2") ] "multi" in
  let l2 = Metrics.counter m ~labels:[ ("y", "2"); ("x", "1") ] "multi" in
  Metrics.incr l1;
  Alcotest.(check int) "label order canonical" 1 (Metrics.counter_value l2)

let test_registry_gauge_and_conflicts () =
  let m = Metrics.create () in
  let cell = ref 5 in
  Metrics.gauge m "g" (fun () -> float_of_int !cell);
  cell := 9;
  (match Metrics.value m "g" with
  | Some (Metrics.Gauge v) -> Alcotest.(check (float 1e-9)) "gauge reads live" 9. v
  | _ -> Alcotest.fail "gauge missing");
  (* Re-registering a gauge replaces the read closure. *)
  Metrics.gauge m "g" (fun () -> 42.);
  (match Metrics.value m "g" with
  | Some (Metrics.Gauge v) -> Alcotest.(check (float 1e-9)) "gauge replaced" 42. v
  | _ -> Alcotest.fail "gauge missing after replace");
  (* Kind mismatches are programming errors. *)
  let raised = try ignore (Metrics.counter m "g"); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "kind conflict raises" true raised

let suite =
  [
    Alcotest.test_case "trace JSONL round trip" `Quick test_trace_jsonl_round_trip;
    Alcotest.test_case "metrics snapshot agrees with views" `Quick test_metrics_snapshot_agrees;
    Alcotest.test_case "registry identity" `Quick test_registry_identity;
    Alcotest.test_case "registry gauges and conflicts" `Quick test_registry_gauge_and_conflicts;
    Alcotest.test_case "rig repeats after other rigs" `Quick test_rig_repeats_after_other_rigs;
  ]
