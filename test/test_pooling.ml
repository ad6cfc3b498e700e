(* Tests for the PR-5 zero-allocation packet path plumbing:

   - the port-indexed demux table against the reference fold
     [Spec.Demux_ref.lookup] on random listen/unlisten/SYN sequences,
     including equal-specificity ties and overlapping prefixes;
   - the pooled work-item free list in lockstep with a naive
     [Queue.t]-of-ids reference (no double free, no reuse of in-flight
     items, conservation of the lifecycle counters);
   - the slot-indexed connection registry against a plain list;
   - the reap-of-all-live-connections regression: no rebuild, no
     allocation. *)

module Sim = Engine.Sim
module Simtime = Engine.Simtime
module Machine = Procsim.Machine
module Process = Procsim.Process
module Container = Rescont.Container
module Socket = Netsim.Socket
module Stack = Netsim.Stack
module Filter = Netsim.Filter
module Ipaddr = Netsim.Ipaddr
module Workpool = Netsim.Workpool
module Conn_table = Netsim.Conn_table

type rig = { sim : Sim.t; machine : Machine.t; stack : Stack.t }

let make_rig mode =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let policy = Sched.Multilevel.make ~root () in
  let machine = Machine.create ~sim ~policy:(fun () -> policy) ~root () in
  let proc = Process.create machine ~name:"srv" () in
  let stack = Stack.create ~machine ~mode ~owner:(Process.default_container proc) () in
  { sim; machine; stack }

let run rig span = Machine.run_until rig.machine (Simtime.add (Sim.now rig.sim) span)
let run_of rig = Container.run (Machine.root rig.machine)

(* {1 Demux table vs reference fold} *)

(* Overlapping prefixes, duplicated filters (equal-specificity ties that
   only the listen-id tie-break can order), a host filter inside every
   prefix, and a complement. *)
let filter_pool =
  [|
    Filter.any;
    Filter.prefix ~template:(Ipaddr.v 10 0 0 0) ~bits:8;
    Filter.prefix ~template:(Ipaddr.v 10 1 0 0) ~bits:16;
    Filter.prefix ~template:(Ipaddr.v 10 1 0 0) ~bits:16;
    Filter.prefix ~template:(Ipaddr.v 10 0 0 0) ~bits:16;
    Filter.prefix ~template:(Ipaddr.v 10 1 2 0) ~bits:24;
    Filter.host (Ipaddr.v 10 1 2 3);
    Filter.complement (Filter.prefix ~template:(Ipaddr.v 10 0 0 0) ~bits:8);
    Filter.complement Filter.any;
  |]

let probe_srcs =
  [|
    Ipaddr.v 10 1 2 3;
    Ipaddr.v 10 1 2 9;
    Ipaddr.v 10 1 9 9;
    Ipaddr.v 10 0 0 7;
    Ipaddr.v 10 9 9 9;
    Ipaddr.v 11 1 2 3;
    Ipaddr.v 0 0 0 0;
  |]

let listen_id_opt = function None -> None | Some l -> Some l.Socket.listen_id

let prop_demux_matches_reference =
  QCheck2.Test.make ~name:"demux table equals reference fold" ~count:200
    QCheck2.Gen.(list_size (int_range 1 40) (triple (int_bound 5) (int_bound 97) (int_bound 97)))
    (fun ops ->
      let rig = make_rig Stack.Softirq in
      let added = ref [] in
      let check_probes () =
        Array.iter
          (fun src ->
            List.iter
              (fun port ->
                let fast = listen_id_opt (Stack.demux_lookup rig.stack ~port ~src) in
                let slow = listen_id_opt (Spec.Demux_ref.lookup rig.stack ~port ~src) in
                if fast <> slow then
                  QCheck2.Test.fail_reportf
                    "port %d src %s: table %s, reference %s" port (Ipaddr.to_string src)
                    (match fast with Some i -> string_of_int i | None -> "none")
                    (match slow with Some i -> string_of_int i | None -> "none"))
              [ 80; 81; 82 ])
          probe_srcs
      in
      List.iter
        (fun (op, a, b) ->
          (match (op, !added) with
          | (0 | 1 | 2 | 3), _ ->
              (* Add outnumbers remove so tables actually fill up. *)
              let port = 80 + (a mod 2) in
              let filter = filter_pool.(b mod Array.length filter_pool) in
              let l = Socket.make_unbound_listen ~port ~filter (run_of rig) in
              Stack.add_listen rig.stack l;
              added := l :: !added
          | _, [] -> ()
          | _, listens ->
              let l = List.nth listens (a mod List.length listens) in
              Stack.remove_listen rig.stack l;
              added := List.filter (fun l' -> l' != l) !added);
          check_probes ())
        ops;
      true)

(* A SYN through the full stack must land on the socket the reference
   fold picks — the table is what [syn_arrival] actually consults. *)
let test_demux_tie_breaks_to_earliest_bound () =
  let rig = make_rig Stack.Softirq in
  let f = Filter.prefix ~template:(Ipaddr.v 10 1 0 0) ~bits:16 in
  let first = Socket.make_unbound_listen ~port:80 ~filter:f (run_of rig) in
  let second = Socket.make_unbound_listen ~port:80 ~filter:f (run_of rig) in
  let catch_all = Socket.make_unbound_listen ~port:80 (run_of rig) in
  Stack.add_listen rig.stack second;
  Stack.add_listen rig.stack first;
  Stack.add_listen rig.stack catch_all;
  let src = Ipaddr.v 10 1 5 5 in
  let got = listen_id_opt (Stack.demux_lookup rig.stack ~port:80 ~src) in
  Alcotest.(check (option int))
    "equal specificity resolves to the lowest listen id"
    (Some (min first.Socket.listen_id second.Socket.listen_id))
    got;
  Stack.connect rig.stack ~src ~port:80 ~handlers:Socket.null_handlers ();
  run rig (Simtime.ms 5);
  Alcotest.(check int) "SYN queued on the winning socket" 1
    (Queue.length
       (if first.Socket.listen_id < second.Socket.listen_id then first.Socket.syn_queue
        else second.Socket.syn_queue))

(* {1 Work-item pool lockstep} *)

(* The reference tracks item identity by a stamp this test assigns at
   acquire time; the pool must never hand out an item that is currently
   in flight, and the queues must be FIFO per queue. *)
let prop_workpool_lockstep =
  QCheck2.Test.make ~name:"work pool lockstep with queue reference" ~count:300
    QCheck2.Gen.(list_size (int_range 1 120) (triple (int_bound 3) (int_bound 997) (int_bound 2)))
    (fun ops ->
      let pool = Workpool.create () in
      let queues = Array.init 3 (fun _ -> Workpool.queue_create pool) in
      let ref_queues : int Queue.t array = Array.init 3 (fun _ -> Queue.create ()) in
      let stamps : (int * Workpool.item) list ref = ref [] in
      let next_stamp = ref 0 in
      let in_service = ref [] in
      let consistent what =
        let allocated, free, service, queued = Workpool.stats pool in
        if free + service + queued <> allocated then
          QCheck2.Test.fail_reportf "%s: %d free + %d in-service + %d queued <> %d allocated"
            what free service queued allocated;
        Array.iteri
          (fun i q ->
            if not (Workpool.queue_validate q) then
              QCheck2.Test.fail_reportf "%s: queue %d fails validation" what i;
            if Workpool.queue_length q <> Queue.length ref_queues.(i) then
              QCheck2.Test.fail_reportf "%s: queue %d length %d, reference %d" what i
                (Workpool.queue_length q)
                (Queue.length ref_queues.(i)))
          queues
      in
      List.iter
        (fun (op, a, qi) ->
          (match (op, !in_service) with
          | 0, _ ->
              let item = Workpool.acquire pool in
              (* An acquired item must not be one currently in flight. *)
              List.iter
                (fun (_, live) ->
                  if live == item then QCheck2.Test.fail_report "acquire returned an in-flight item")
                !stamps;
              incr next_stamp;
              stamps := (!next_stamp, item) :: !stamps;
              in_service := !next_stamp :: !in_service
          | 1, [] -> ()
          | 1, live ->
              let stamp = List.nth live (a mod List.length live) in
              let item = List.assoc stamp !stamps in
              Workpool.release pool item;
              stamps := List.remove_assoc stamp !stamps;
              in_service := List.filter (fun s -> s <> stamp) !in_service
          | 2, [] -> ()
          | 2, live ->
              let stamp = List.nth live (a mod List.length live) in
              let item = List.assoc stamp !stamps in
              Workpool.push queues.(qi) item;
              Queue.push stamp ref_queues.(qi);
              in_service := List.filter (fun s -> s <> stamp) !in_service
          | _, _ -> (
              match (Workpool.pop queues.(qi), Queue.take_opt ref_queues.(qi)) with
              | None, None -> ()
              | Some item, Some stamp ->
                  if not (List.assoc stamp !stamps == item) then
                    QCheck2.Test.fail_reportf "queue %d popped the wrong item" qi;
                  in_service := stamp :: !in_service
              | Some _, None -> QCheck2.Test.fail_reportf "queue %d popped, reference empty" qi
              | None, Some _ -> QCheck2.Test.fail_reportf "queue %d empty, reference not" qi));
          consistent "after op")
        ops;
      true)

let test_workpool_misuse_raises () =
  let pool = Workpool.create () in
  let q = Workpool.queue_create pool in
  let item = Workpool.acquire pool in
  Workpool.release pool item;
  (try
     Workpool.release pool item;
     Alcotest.fail "double free must raise"
   with Invalid_argument _ -> ());
  let item = Workpool.acquire pool in
  Workpool.push q item;
  (try
     Workpool.release pool item;
     Alcotest.fail "releasing a queued item must raise"
   with Invalid_argument _ -> ());
  (try
     Workpool.push q item;
     Alcotest.fail "pushing a queued item must raise"
   with Invalid_argument _ -> ());
  (match Workpool.pop q with
  | Some popped -> Alcotest.(check bool) "same record back" true (popped == item)
  | None -> Alcotest.fail "queued item lost");
  Workpool.release pool item;
  (* The second acquire reused the freed record, so only one was ever
     allocated — and it is parked again. *)
  Alcotest.(check (pair int int))
    "the one allocated item is parked"
    (1, 1)
    (let allocated, free, _, _ = Workpool.stats pool in
     (allocated, free))

(* {1 Connection registry vs list reference} *)

let fresh_conn =
  let n = ref 0 in
  fun () ->
    incr n;
    Socket.make_conn ~id:!n
      ~src:(Ipaddr.v 10 0 (!n / 256) (!n mod 256))
      ~src_port:0 ~client:Socket.null_handlers ~now:Simtime.zero

let prop_conn_table_matches_list =
  QCheck2.Test.make ~name:"conn table lockstep with list reference" ~count:300
    QCheck2.Gen.(list_size (int_range 1 150) (pair (int_bound 5) (int_bound 997)))
    (fun ops ->
      let table = Conn_table.create ~capacity:2 () in
      let reference = ref [] in
      let check what =
        if Conn_table.length table <> List.length !reference then
          QCheck2.Test.fail_reportf "%s: length %d, reference %d" what
            (Conn_table.length table) (List.length !reference);
        List.iter
          (fun c ->
            if not (Conn_table.mem table c) then
              QCheck2.Test.fail_reportf "%s: reference conn missing from table" what)
          !reference;
        let seen = Conn_table.fold table ~init:0 (fun acc c ->
            if not (List.memq c !reference) then
              QCheck2.Test.fail_reportf "%s: table holds a conn not in the reference" what;
            acc + 1)
        in
        if seen <> List.length !reference then
          QCheck2.Test.fail_reportf "%s: fold visited %d conns, reference %d" what seen
            (List.length !reference)
      in
      List.iter
        (fun (op, a) ->
          (match (op, !reference) with
          | (0 | 1 | 2), _ ->
              let c = fresh_conn () in
              Conn_table.add table c;
              reference := c :: !reference
          | 3, c :: _ when a mod 7 = 0 ->
              (* Removing twice must report false the second time. *)
              ignore (Conn_table.remove table c);
              reference := List.filter (fun c' -> c' != c) !reference;
              if Conn_table.remove table c then
                QCheck2.Test.fail_report "second remove returned true"
          | 3, live when live <> [] ->
              let c = List.nth live (a mod List.length live) in
              if not (Conn_table.remove table c) then
                QCheck2.Test.fail_report "remove of a live conn returned false";
              reference := List.filter (fun c' -> c' != c) !reference
          | 4, live when live <> [] ->
              let c = List.nth live (a mod List.length live) in
              c.Socket.state <- Socket.Closed
          | _, _ ->
              let closed = List.length (List.filter (fun c -> c.Socket.state = Socket.Closed) !reference) in
              let removed = Conn_table.reap_closed table in
              if removed <> closed then
                QCheck2.Test.fail_reportf "reap removed %d, reference had %d closed" removed closed;
              reference := List.filter (fun c -> c.Socket.state <> Socket.Closed) !reference);
          check "after op")
        ops;
      true)

(* {1 Reap is incremental: all-live reap rebuilds nothing} *)

let establish_many rig ~count =
  let listen = Socket.make_unbound_listen ~port:80 ~backlog:256 (run_of rig) in
  Stack.add_listen rig.stack listen;
  let established = ref 0 in
  for i = 0 to count - 1 do
    Stack.connect rig.stack
      ~src:(Ipaddr.v 10 2 (i / 256) (i mod 256))
      ~port:80
      ~handlers:
        { Socket.null_handlers with Socket.on_established = (fun _ -> incr established) }
      ()
  done;
  run rig (Simtime.ms 100);
  !established

let test_reap_all_live_allocates_nothing () =
  let rig = make_rig Stack.Softirq in
  let established = establish_many rig ~count:100 in
  Alcotest.(check bool) "population established" true (established >= 90);
  let before = Stack.tracked_conns rig.stack in
  Alcotest.(check bool) "registry populated" true (before >= 90);
  (* Warm the float boxes [Gc.minor_words] itself returns. *)
  ignore (Gc.minor_words ());
  let w0 = Gc.minor_words () in
  let removed = Stack.reap rig.stack in
  let w1 = Gc.minor_words () in
  Alcotest.(check int) "nothing to reap" 0 removed;
  Alcotest.(check int) "registry untouched" before (Stack.tracked_conns rig.stack);
  (* The old list prune rebuilt a [before]-long spine (~3 words per conn);
     the slot sweep allocates a counter and the measurement's own float
     boxes, nothing proportional to the population. *)
  Alcotest.(check bool)
    (Printf.sprintf "reap allocated %.0f minor words" (w1 -. w0))
    true
    (w1 -. w0 < 64.)

(* {1 Pool quiescence through the stack} *)

let test_pool_quiesces_after_burst () =
  let rig = make_rig Stack.Rc in
  let established = establish_many rig ~count:50 in
  Alcotest.(check bool) "handshakes completed" true (established >= 45);
  run rig (Simtime.ms 50);
  let allocated, free, in_service, queued = Stack.pool_stats rig.stack in
  Alcotest.(check int) "no in-flight items at rest" 0 (in_service + queued);
  Alcotest.(check int) "every item parked on the free list" allocated free;
  Alcotest.(check bool) "pool grew at most to the burst peak" true (allocated <= 151)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_demux_matches_reference;
    Alcotest.test_case "demux equal-specificity tie break" `Quick
      test_demux_tie_breaks_to_earliest_bound;
    QCheck_alcotest.to_alcotest prop_workpool_lockstep;
    Alcotest.test_case "work pool misuse raises" `Quick test_workpool_misuse_raises;
    QCheck_alcotest.to_alcotest prop_conn_table_matches_list;
    Alcotest.test_case "reap of all-live conns allocates nothing" `Quick
      test_reap_all_live_allocates_nothing;
    Alcotest.test_case "pool quiesces after a burst" `Quick test_pool_quiesces_after_burst;
  ]
