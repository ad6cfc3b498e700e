(* Tests for Netsim: addresses, filters, payloads, sockets and the stack. *)

module Simtime = Engine.Simtime
module Sim = Engine.Sim
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Machine = Procsim.Machine
module Process = Procsim.Process
module Ipaddr = Netsim.Ipaddr
module Filter = Netsim.Filter
module Payload = Netsim.Payload
module Socket = Netsim.Socket
module Stack = Netsim.Stack

(* {1 Ipaddr} *)

let test_ipaddr_roundtrip () =
  let a = Ipaddr.v 10 1 2 3 in
  Alcotest.(check string) "to_string" "10.1.2.3" (Ipaddr.to_string a);
  Alcotest.(check bool) "of_string" true (Ipaddr.equal a (Ipaddr.of_string "10.1.2.3"));
  Alcotest.(check bool) "inequality" false (Ipaddr.equal a (Ipaddr.v 10 1 2 4))

let test_ipaddr_invalid () =
  let invalid s = try ignore (Ipaddr.of_string s); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "too few octets" true (invalid "10.1.2");
  Alcotest.(check bool) "garbage" true (invalid "a.b.c.d");
  Alcotest.(check bool) "octet range" true
    (try ignore (Ipaddr.v 256 0 0 0); false with Invalid_argument _ -> true)

(* {1 Flow hash sign}

   The avalanche mix behind RSS steering multiplies by two odd constants;
   for src_port >= 23 the products overflow into OCaml's 63-bit sign bit,
   so a mix without a final mask is negative for most real ports — and
   [mod] of a negative hash yields a negative CPU / ring index.  The fix
   masks as the LAST step of [Stack.flow_hash]; this test drives the hash
   with inputs whose unmasked mix is provably negative and pins
   non-negativity plus steering range. *)

let test_flow_hash_nonnegative () =
  (* Replicate the mix WITHOUT the final mask to certify the inputs are
     adversarial (sign bit set), then check the exported hash. *)
  let unmasked src port =
    let h = Ipaddr.hash src lxor ((port + 1) * 0x9E3779B1) in
    let h = h lxor (h lsr 16) in
    let h = h * 0x45D9F3B in
    h lxor (h lsr 13)
  in
  let adversarial = ref 0 in
  let cases = ref 0 in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let src = Ipaddr.v 10 a b 7 in
      List.iter
        (fun port ->
          incr cases;
          if unmasked src port < 0 then incr adversarial;
          let h = Stack.flow_hash src port in
          if h < 0 then
            Alcotest.failf "flow_hash %s:%d negative (%d)" (Ipaddr.to_string src) port h;
          List.iter
            (fun ncpus ->
              let cpu = h mod ncpus in
              if cpu < 0 || cpu >= ncpus then
                Alcotest.failf "steer %s:%d at %d cpus out of range (%d)"
                  (Ipaddr.to_string src) port ncpus cpu)
            [ 2; 3; 4; 7; 16 ])
        [ 0; 1; 22; 23; 80; 1024; 49152; 65535; 1 lsl 30; max_int lsr 8 ]
    done
  done;
  (* The grid must actually exercise the overflow: a large fraction of
     ports >= 23 set the sign bit in the unmasked mix. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d/%d grid points have a negative unmasked mix" !adversarial !cases)
    true
    (!adversarial > !cases / 4)

let test_ipaddr_prefix () =
  let base = Ipaddr.v 192 168 66 0 in
  Alcotest.(check bool) "inside /24" true
    (Ipaddr.in_prefix (Ipaddr.v 192 168 66 200) ~template:base ~bits:24);
  Alcotest.(check bool) "outside /24" false
    (Ipaddr.in_prefix (Ipaddr.v 192 168 67 1) ~template:base ~bits:24);
  Alcotest.(check bool) "/0 matches all" true
    (Ipaddr.in_prefix (Ipaddr.v 8 8 8 8) ~template:base ~bits:0);
  Alcotest.(check bool) "/32 exact" false
    (Ipaddr.in_prefix (Ipaddr.v 192 168 66 1) ~template:base ~bits:32);
  Alcotest.(check bool) "high-bit addresses" true
    (Ipaddr.in_prefix (Ipaddr.v 224 0 0 5) ~template:(Ipaddr.v 224 0 0 0) ~bits:4)

let test_ipaddr_offset () =
  let base = Ipaddr.v 10 0 0 250 in
  Alcotest.(check string) "carries into next octet" "10.0.1.4"
    (Ipaddr.to_string (Ipaddr.offset base 10))

(* {1 Filter} *)

let test_filter_matching () =
  let flood = Filter.prefix ~template:(Ipaddr.v 192 168 66 0) ~bits:24 in
  Alcotest.(check bool) "prefix hit" true (Filter.matches flood (Ipaddr.v 192 168 66 9));
  Alcotest.(check bool) "prefix miss" false (Filter.matches flood (Ipaddr.v 10 0 0 1));
  Alcotest.(check bool) "any matches" true (Filter.matches Filter.any (Ipaddr.v 1 2 3 4));
  let host = Filter.host (Ipaddr.v 10 9 9 9) in
  Alcotest.(check bool) "host hit" true (Filter.matches host (Ipaddr.v 10 9 9 9));
  Alcotest.(check bool) "host miss" false (Filter.matches host (Ipaddr.v 10 9 9 8))

let test_filter_complement () =
  let flood = Filter.prefix ~template:(Ipaddr.v 192 168 66 0) ~bits:24 in
  let except = Filter.complement flood in
  Alcotest.(check bool) "complement inverts" true (Filter.matches except (Ipaddr.v 10 0 0 1));
  Alcotest.(check bool) "complement excludes" false
    (Filter.matches except (Ipaddr.v 192 168 66 1));
  Alcotest.(check bool) "double complement" true
    (Filter.matches (Filter.complement except) (Ipaddr.v 192 168 66 1))

let test_filter_specificity () =
  let any = Filter.any in
  let p24 = Filter.prefix ~template:(Ipaddr.v 10 0 0 0) ~bits:24 in
  let host = Filter.host (Ipaddr.v 10 0 0 1) in
  Alcotest.(check bool) "host > /24" true (Filter.specificity host > Filter.specificity p24);
  Alcotest.(check bool) "/24 > any" true (Filter.specificity p24 > Filter.specificity any);
  Alcotest.(check bool) "complement ranks below positive" true
    (Filter.specificity (Filter.complement p24) < Filter.specificity p24);
  let sorted = List.sort Filter.compare_specificity [ any; host; p24 ] in
  Alcotest.(check bool) "sort most specific first" true (List.hd sorted == host)

let prop_complement_is_negation =
  QCheck2.Test.make ~name:"complement is pointwise negation" ~count:300
    QCheck2.Gen.(pair (int_range 0 32) (pair (int_bound 255) (int_bound 255)))
    (fun (bits, (a, b)) ->
      let f = Filter.prefix ~template:(Ipaddr.v 192 168 0 0) ~bits in
      let addr = Ipaddr.v 192 a b 7 in
      Filter.matches (Filter.complement f) addr = not (Filter.matches f addr))

(* {1 Payload} *)

let test_payload () =
  let p = Payload.make ~tag:"x" ~bytes:3000 Simtime.zero in
  Alcotest.(check int) "packets" 3 (Payload.packet_count ~mtu:1460 p);
  Alcotest.(check int) "zero bytes still one packet" 1
    (Payload.packet_count ~mtu:1460 (Payload.make ~bytes:0 Simtime.zero));
  Alcotest.(check bool) "negative rejected" true
    (try ignore (Payload.make ~bytes:(-1) Simtime.zero); false
     with Invalid_argument _ -> true)

(* {1 Stack rig} *)

type rig = {
  sim : Sim.t;
  root : Container.t;
  machine : Machine.t;
  owner : Container.t;
  stack : Stack.t;
}

let make_rig mode =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let policy = Sched.Multilevel.make ~root () in
  let machine = Machine.create ~sim ~policy:(fun () -> policy) ~root () in
  let proc = Process.create machine ~name:"srv" () in
  let owner = Process.default_container proc in
  let stack = Stack.create ~machine ~mode ~owner () in
  { sim; root; machine; owner; stack }

let run rig span = Machine.run_until rig.machine (Simtime.add (Sim.now rig.sim) span)

let quiet_handlers = Socket.null_handlers

let connect_one ?(src = Ipaddr.v 10 0 0 1) ?(port = 80) rig ~on_established =
  Stack.connect rig.stack ~src ~port
    ~handlers:{ quiet_handlers with Socket.on_established }
    ()

let test_handshake_establishes () =
  List.iter
    (fun mode ->
      let rig = make_rig mode in
      let listen = Socket.make_unbound_listen ~port:80 (Container.run rig.root) in
      Stack.add_listen rig.stack listen;
      let established = ref None in
      connect_one rig ~on_established:(fun conn -> established := Some conn);
      run rig (Simtime.ms 50);
      Alcotest.(check bool) "established" true (!established <> None);
      Alcotest.(check bool) "in accept queue" true (Socket.accept_ready listen);
      Alcotest.(check int) "stats" 1 (Stack.stats rig.stack).Stack.conns_established)
    [ Stack.Softirq; Stack.Lrp; Stack.Rc ]

let test_no_listener_refused () =
  let rig = make_rig Stack.Softirq in
  let refused = ref false in
  Stack.connect rig.stack ~src:(Ipaddr.v 10 0 0 1) ~port:81
    ~handlers:{ quiet_handlers with Socket.on_refused = (fun () -> refused := true) }
    ();
  run rig (Simtime.ms 10);
  Alcotest.(check bool) "refused" true !refused

let test_filter_demux_most_specific () =
  let rig = make_rig Stack.Rc in
  let special_src = Ipaddr.v 10 9 9 9 in
  let c_special = Container.create ~parent:rig.root ~name:"special" () in
  let l_special =
    Socket.make_listen ~port:80 ~filter:(Filter.host special_src) ~container:c_special ()
  in
  let l_any = Socket.make_unbound_listen ~port:80 (Container.run rig.root) in
  Stack.add_listen rig.stack l_any;
  Stack.add_listen rig.stack l_special;
  connect_one rig ~src:special_src ~on_established:(fun _ -> ());
  connect_one rig ~src:(Ipaddr.v 10 0 0 7) ~on_established:(fun _ -> ());
  run rig (Simtime.ms 50);
  Alcotest.(check bool) "special socket got its client" true (Socket.accept_ready l_special);
  Alcotest.(check bool) "any socket got the other" true (Socket.accept_ready l_any);
  (match Stack.accept rig.stack l_special with
  | Some conn -> Alcotest.(check bool) "right source" true (Ipaddr.equal conn.Socket.src special_src)
  | None -> Alcotest.fail "no conn on special listen")

let test_request_response_roundtrip () =
  let rig = make_rig Stack.Rc in
  let listen = Socket.make_unbound_listen ~port:80 (Container.run rig.root) in
  Stack.add_listen rig.stack listen;
  let response = ref None in
  Stack.connect rig.stack ~src:(Ipaddr.v 10 0 0 1) ~port:80
    ~handlers:
      {
        quiet_handlers with
        Socket.on_established =
          (fun conn ->
            Stack.client_send rig.stack conn
              (Payload.make ~tag:"req" ~bytes:200 (Sim.now rig.sim)));
        on_response = (fun _ p -> response := Some p.Payload.tag);
      }
    ();
  (* Server side: a thread accepting and echoing. *)
  ignore
    (Machine.spawn rig.machine ~name:"server" ~container:rig.owner (fun () ->
         let rec wait_conn () =
           match Stack.accept rig.stack listen with
           | Some conn -> conn
           | None ->
               Machine.sleep (Simtime.ms 1);
               wait_conn ()
         in
         let conn = wait_conn () in
         let rec wait_req () =
           match Stack.recv rig.stack conn with
           | Some p -> p
           | None ->
               Machine.sleep (Simtime.ms 1);
               wait_req ()
         in
         let _req = wait_req () in
         Stack.send rig.stack conn (Payload.make ~tag:"resp" ~bytes:1024 (Sim.now rig.sim));
         Stack.close rig.stack conn));
  run rig (Simtime.ms 100);
  Alcotest.(check (option string)) "response delivered" (Some "resp") !response

let test_client_close_surfaces () =
  let rig = make_rig Stack.Rc in
  let listen = Socket.make_unbound_listen ~port:80 (Container.run rig.root) in
  Stack.add_listen rig.stack listen;
  let the_conn = ref None in
  connect_one rig ~on_established:(fun conn -> the_conn := Some conn);
  run rig (Simtime.ms 10);
  (match !the_conn with
  | Some conn ->
      Stack.client_close rig.stack conn;
      run rig (Simtime.ms 10);
      Alcotest.(check bool) "close_wait" true (conn.Socket.state = Socket.Close_wait);
      Alcotest.(check bool) "readable for app" true (Socket.readable conn)
  | None -> Alcotest.fail "no conn")

let test_syn_queue_eviction () =
  let rig = make_rig Stack.Softirq in
  let listen = Socket.make_unbound_listen ~port:80 ~syn_backlog:4 (Container.run rig.root) in
  Stack.add_listen rig.stack listen;
  for _ = 1 to 10 do
    Stack.inject_syn rig.stack ~src:(Ipaddr.v 192 168 66 1) ~port:80
  done;
  run rig (Simtime.ms 10);
  Alcotest.(check bool) "drops counted" true ((Stack.stats rig.stack).Stack.syn_queue_drops >= 6);
  Alcotest.(check bool) "queue bounded" true (Queue.length listen.Socket.syn_queue <= 4)

let test_syn_drop_notification () =
  let rig = make_rig Stack.Softirq in
  let listen = Socket.make_unbound_listen ~port:80 ~syn_backlog:2 (Container.run rig.root) in
  Stack.add_listen rig.stack listen;
  let reported = ref [] in
  Stack.set_on_syn_drop rig.stack (fun _l src -> reported := Ipaddr.to_string src :: !reported);
  for i = 1 to 5 do
    Stack.inject_syn rig.stack ~src:(Ipaddr.v 192 168 66 i) ~port:80
  done;
  run rig (Simtime.ms 10);
  Alcotest.(check bool) "application notified of drops (§5.7)" true (List.length !reported >= 3)

let test_early_discard_in_rc () =
  let rig = make_rig Stack.Rc in
  let idle = Container.create ~parent:rig.root ~name:"idle" ~attrs:(Attrs.timeshare ~priority:0 ()) () in
  let listen = Socket.make_listen ~port:80 ~container:idle () in
  Stack.add_listen rig.stack listen;
  (* Keep the machine busy so idle-class packets are never processed. *)
  let busy = Container.create ~parent:rig.root ~name:"busy" () in
  ignore
    (Machine.spawn rig.machine ~name:"burner" ~container:busy (fun () ->
         let rec burn () =
           Machine.cpu (Simtime.ms 1);
           burn ()
         in
         burn ()));
  for _ = 1 to 200 do
    Stack.inject_syn rig.stack ~src:(Ipaddr.v 192 168 66 1) ~port:80
  done;
  run rig (Simtime.ms 20);
  let stats = Stack.stats rig.stack in
  Alcotest.(check bool) "early discards happened" true (stats.Stack.rx_queue_drops > 100);
  (* The flood consumed essentially no CPU beyond interrupts: the burner
     got all but the interrupt overhead. *)
  let busy_cpu = Simtime.span_to_ns (Rescont.Usage.cpu_total (Container.usage busy)) in
  Alcotest.(check bool) "burner kept the CPU" true (busy_cpu > 18_000_000)

let test_idle_class_processed_when_idle () =
  let rig = make_rig Stack.Rc in
  let idle = Container.create ~parent:rig.root ~name:"idle" ~attrs:(Attrs.timeshare ~priority:0 ()) () in
  let listen = Socket.make_listen ~port:80 ~container:idle () in
  Stack.add_listen rig.stack listen;
  Stack.inject_syn rig.stack ~src:(Ipaddr.v 192 168 66 1) ~port:80;
  run rig (Simtime.ms 50);
  (* Machine is otherwise idle: the SYN is eventually processed. *)
  Alcotest.(check bool) "processed at idle" true
    ((Stack.stats rig.stack).Stack.packets_processed >= 1)

let test_softirq_steals_from_current () =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let policy = Sched.Timeshare.make () in
  let machine = Machine.create ~sim ~policy:(fun () -> policy) ~root () in
  let proc = Process.create machine ~name:"srv" () in
  let owner = Process.default_container proc in
  let stack =
    Stack.create ~machine ~mode:Stack.Softirq ~softirq_charge:Stack.Charge_current ~owner ()
  in
  let listen = Socket.make_unbound_listen ~port:80 (Container.run root) in
  Stack.add_listen stack listen;
  let victim = Container.create ~parent:root ~name:"victim" ~attrs:(Attrs.timeshare ()) () in
  let finished = ref Simtime.zero in
  ignore
    (Machine.spawn machine ~name:"v" ~container:victim (fun () ->
         Machine.cpu (Simtime.ms 1);
         finished := Sim.now sim));
  ignore (Sim.at sim (Simtime.of_ns 200_000) (fun () ->
      Stack.inject_syn stack ~src:(Ipaddr.v 1 2 3 4) ~port:80));
  Machine.run_until machine (Simtime.of_ns 50_000_000);
  (* SYN processing (~98.9us) stole wall time from the victim's slice and
     was charged to it. *)
  Alcotest.(check bool) "slice stretched" true (Simtime.to_ns !finished > 1_050_000);
  Alcotest.(check bool) "victim charged" true
    (Simtime.span_to_ns (Rescont.Usage.cpu_total (Container.usage victim)) > 1_050_000)

let test_socket_buffer_memory () =
  let rig = make_rig Stack.Rc in
  let listen = Socket.make_unbound_listen ~port:80 (Container.run rig.root) in
  Stack.add_listen rig.stack listen;
  let the_conn = ref None in
  connect_one rig ~on_established:(fun conn -> the_conn := Some conn);
  run rig (Simtime.ms 10);
  let conn = match !the_conn with Some c -> c | None -> Alcotest.fail "no conn" in
  Stack.client_send rig.stack conn (Payload.make ~tag:"r" ~bytes:500 (Sim.now rig.sim));
  run rig (Simtime.ms 10);
  (* The buffered request occupies the owner's socket-buffer memory until
     the application reads it (§4.4). *)
  Alcotest.(check int) "memory charged while buffered" 500
    (Rescont.Usage.memory_bytes (Container.usage rig.owner));
  ignore (Stack.recv rig.stack conn);
  Alcotest.(check int) "memory released on read" 0
    (Rescont.Usage.memory_bytes (Container.usage rig.owner))

let test_memory_limit_drops () =
  let rig = make_rig Stack.Rc in
  let limited =
    Container.create ~parent:rig.root ~name:"limited"
      ~attrs:(Attrs.timeshare ~memory_limit:1_000 ())
      ()
  in
  let listen = Socket.make_listen ~port:80 ~container:limited () in
  Stack.add_listen rig.stack listen;
  let the_conn = ref None in
  connect_one rig ~on_established:(fun conn -> the_conn := Some conn);
  run rig (Simtime.ms 10);
  let conn = match !the_conn with Some c -> c | None -> Alcotest.fail "no conn" in
  Socket.bind_container conn limited;
  (* Nobody reads: the first 500B message buffers; the second would exceed
     the 1000B limit and is dropped. *)
  Stack.client_send rig.stack conn (Payload.make ~tag:"a" ~bytes:600 (Sim.now rig.sim));
  run rig (Simtime.ms 10);
  Stack.client_send rig.stack conn (Payload.make ~tag:"b" ~bytes:600 (Sim.now rig.sim));
  run rig (Simtime.ms 10);
  Alcotest.(check int) "only first buffered" 600
    (Rescont.Usage.memory_bytes (Container.usage limited));
  Alcotest.(check int) "drop counted" 1 (Stack.stats rig.stack).Stack.rx_queue_drops;
  (* Reading frees the budget; a retry then fits. *)
  ignore (Stack.recv rig.stack conn);
  Stack.client_send rig.stack conn (Payload.make ~tag:"c" ~bytes:600 (Sim.now rig.sim));
  run rig (Simtime.ms 10);
  Alcotest.(check int) "retry accepted after read" 600
    (Rescont.Usage.memory_bytes (Container.usage limited))

(* Regression: closing a connection with unread buffered data must credit
   the buffered bytes back, or the owning container's memory accounting
   leaks a little with every abandoned connection. *)
let test_close_refunds_buffered_rx () =
  let rig = make_rig Stack.Rc in
  let listen = Socket.make_unbound_listen ~port:80 (Container.run rig.root) in
  Stack.add_listen rig.stack listen;
  let the_conn = ref None in
  connect_one rig ~on_established:(fun conn -> the_conn := Some conn);
  run rig (Simtime.ms 10);
  let conn = match !the_conn with Some c -> c | None -> Alcotest.fail "no conn" in
  Stack.client_send rig.stack conn (Payload.make ~tag:"r" ~bytes:700 (Sim.now rig.sim));
  run rig (Simtime.ms 10);
  Alcotest.(check int) "memory charged while buffered" 700
    (Rescont.Usage.memory_bytes (Container.usage rig.owner));
  (* Server closes without ever reading the request. *)
  ignore
    (Machine.spawn rig.machine ~name:"closer" ~container:rig.owner (fun () ->
         Stack.close rig.stack conn));
  run rig (Simtime.ms 10);
  Alcotest.(check int) "buffered rx refunded on close" 0
    (Rescont.Usage.memory_bytes (Container.usage rig.owner));
  Alcotest.(check int) "whole subtree balances" 0
    (Rescont.Usage.memory_bytes (Container.subtree_usage rig.root))

(* Regression: SYN-queue entries that die by timeout (not eviction) must be
   counted as drops and reported through on_syn_drop. *)
let test_syn_timeout_counted () =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let machine = Machine.create ~sim ~policy:(fun () -> Sched.Multilevel.make ~root ()) ~root () in
  let proc = Process.create machine ~name:"srv" () in
  let owner = Process.default_container proc in
  let stack =
    Stack.create ~machine ~mode:Stack.Softirq ~syn_timeout:(Simtime.ms 100) ~owner ()
  in
  let listen = Socket.make_unbound_listen ~port:80 (Container.run root) in
  Stack.add_listen stack listen;
  let reported = ref [] in
  Stack.set_on_syn_drop stack (fun _l src -> reported := Ipaddr.to_string src :: !reported);
  Stack.inject_syn stack ~src:(Ipaddr.v 192 168 66 1) ~port:80;
  Machine.run_until machine (Simtime.of_ns 200_000_000);
  (* Expired entries are reaped lazily, on the next SYN for the listener. *)
  Alcotest.(check int) "nothing dropped yet" 0 (Stack.stats stack).Stack.syn_queue_drops;
  Stack.inject_syn stack ~src:(Ipaddr.v 10 0 0 2) ~port:80;
  Machine.run_until machine (Simtime.of_ns 400_000_000);
  Alcotest.(check int) "timeout counted as stack drop" 1
    (Stack.stats stack).Stack.syn_queue_drops;
  Alcotest.(check int) "timeout counted on the listener" 1 listen.Socket.syn_drops;
  Alcotest.(check (list string)) "callback fired with the timed-out source"
    [ "192.168.66.1" ] !reported

let test_add_service_covers () =
  let rig = make_rig Stack.Rc in
  let guest = Container.create ~parent:rig.root ~name:"guest" ~attrs:(Attrs.fixed_share ~share:0.5 ()) () in
  let gleaf = Container.create ~parent:guest ~name:"gleaf" () in
  Stack.add_service rig.stack ~name:"guest-netisr" ~home:gleaf
    ~covers:(fun c -> Container.has_ancestor c ~ancestor:guest);
  let listen = Socket.make_listen ~port:80 ~container:gleaf () in
  Stack.add_listen rig.stack listen;
  let established = ref false in
  connect_one rig ~on_established:(fun _ -> established := true);
  run rig (Simtime.ms 50);
  Alcotest.(check bool) "guest service handled the handshake" true !established

(* Property: after any pattern of sends and reads, the owner's buffered
   socket memory equals exactly the bytes still unread. *)
let prop_memory_balance =
  QCheck2.Test.make ~name:"socket buffer memory balances" ~count:40
    QCheck2.Gen.(list_size (int_range 1 20) (pair (int_range 1 1400) bool))
    (fun ops ->
      let rig = make_rig Stack.Rc in
      let listen = Socket.make_unbound_listen ~port:80 (Container.run rig.root) in
      Stack.add_listen rig.stack listen;
      let the_conn = ref None in
      connect_one rig ~on_established:(fun conn -> the_conn := Some conn);
      run rig (Simtime.ms 10);
      match !the_conn with
      | None -> false
      | Some conn ->
          let outstanding = ref 0 in
          List.iter
            (fun (bytes, read_after) ->
              Stack.client_send rig.stack conn (Payload.make ~bytes (Sim.now rig.sim));
              run rig (Simtime.ms 5);
              outstanding := !outstanding + bytes;
              if read_after then
                match Stack.recv rig.stack conn with
                | Some p -> outstanding := !outstanding - p.Payload.bytes
                | None -> ())
            ops;
          Rescont.Usage.memory_bytes (Container.usage rig.owner) = !outstanding)

(* Regression: when several listen sockets tie on filter specificity, demux
   must pick the same socket (the earliest-bound one) no matter what order
   the sockets were registered in — [List.sort] instability used to make the
   winner depend on insertion order. *)
let test_demux_tie_break_order_independent () =
  let src = Ipaddr.v 10 77 0 9 in
  let filter () = Filter.prefix ~template:(Ipaddr.v 10 77 0 0) ~bits:24 in
  let winner insertion_order =
    let rig = make_rig Stack.Rc in
    (* Creation order fixes listen ids: first < second. *)
    let first = Socket.make_unbound_listen ~port:80 ~filter:(filter ()) (Container.run rig.root) in
    let second = Socket.make_unbound_listen ~port:80 ~filter:(filter ()) (Container.run rig.root) in
    List.iter (Stack.add_listen rig.stack)
      (match insertion_order with `First_then_second -> [ first; second ] | `Reversed -> [ second; first ]);
    connect_one rig ~src ~on_established:(fun _ -> ());
    run rig (Simtime.ms 20);
    (Socket.accept_ready first, Socket.accept_ready second)
  in
  Alcotest.(check (pair bool bool)) "earliest-bound socket wins (in order)" (true, false)
    (winner `First_then_second);
  Alcotest.(check (pair bool bool)) "earliest-bound socket wins (reversed)" (true, false)
    (winner `Reversed)

(* The most-specific-match rule itself must also be insertion-order
   independent: a /32 host filter beats the wildcard whichever was added
   first. *)
let test_demux_specificity_both_orders () =
  let special = Ipaddr.v 10 9 9 9 in
  List.iter
    (fun reversed ->
      let rig = make_rig Stack.Rc in
      let l_host =
        Socket.make_unbound_listen ~port:80 ~filter:(Filter.host special) (Container.run rig.root)
      in
      let l_any = Socket.make_unbound_listen ~port:80 (Container.run rig.root) in
      List.iter (Stack.add_listen rig.stack)
        (if reversed then [ l_any; l_host ] else [ l_host; l_any ]);
      connect_one rig ~src:special ~on_established:(fun _ -> ());
      connect_one rig ~src:(Ipaddr.v 10 0 0 7) ~on_established:(fun _ -> ());
      run rig (Simtime.ms 20);
      Alcotest.(check bool) "host socket got the special client" true
        (Socket.accept_ready l_host);
      Alcotest.(check bool) "wildcard got the other" true (Socket.accept_ready l_any))
    [ false; true ]

(* A container created under [parent] after [a] that a stdlib [Hashtbl]
   of [buckets] buckets keyed by container id visits no later than [a]
   (lower bucket, or the same bucket, newest first): a pair whose hash
   order disagrees with its creation order. *)
let hashes_before ~buckets ~parent a =
  let bucket c = Hashtbl.hash (Container.id c) land (buckets - 1) in
  let rec make i =
    let b = Container.create ~parent ~name:(Printf.sprintf "b%d" i) () in
    if bucket b <= bucket a then b else make (i + 1)
  in
  make 0

(* Two never-served containers at one network priority, whose SYNs queue
   newest first, are served in creation order (§4.3), whatever the hash
   order of their ids. *)
let test_never_served_in_creation_order () =
  let rig = make_rig Stack.Rc in
  let older = Container.create ~parent:rig.root ~name:"older" () in
  let newer = hashes_before ~buckets:64 ~parent:rig.root older in
  let l_older = Socket.make_listen ~port:80 ~container:older () in
  let l_newer = Socket.make_listen ~port:81 ~container:newer () in
  Stack.add_listen rig.stack l_older;
  Stack.add_listen rig.stack l_newer;
  Stack.inject_syn rig.stack ~src:(Ipaddr.v 192 168 66 1) ~port:81;
  Stack.inject_syn rig.stack ~src:(Ipaddr.v 192 168 66 2) ~port:80;
  (* One SYN's protocol processing (95 us) fits, not two. *)
  run rig (Simtime.us 150);
  Alcotest.(check int) "one SYN processed" 1 (Stack.stats rig.stack).Stack.packets_processed;
  Alcotest.(check (pair int int)) "the older container's first" (1, 0)
    (Queue.length l_older.Socket.syn_queue, Queue.length l_newer.Socket.syn_queue)

(* Regression: the per-container queues must not grow with container
   churn — each teardown drops its container's entry (§4.6: containers
   are transient, per-connection in the extreme). *)
let test_tables_bounded_under_container_churn () =
  let rig = make_rig Stack.Rc in
  for i = 1 to 10_000 do
    let c = Container.create ~parent:rig.root ~name:(Printf.sprintf "churn%d" i) () in
    let l = Socket.make_listen ~port:80 ~container:c () in
    Stack.add_listen rig.stack l;
    (* A SYN for the container queues deferred work against it. *)
    Stack.inject_syn rig.stack ~src:(Ipaddr.offset (Ipaddr.v 10 50 0 1) (i mod 1024)) ~port:80;
    run rig (Simtime.us 30);
    Stack.remove_listen rig.stack l;
    Container.destroy c
  done;
  run rig (Simtime.ms 10);
  Alcotest.(check bool) "queue table bounded by live containers" true
    (Stack.queue_table_size rig.stack <= 4);
  Alcotest.(check int) "no deferred work points at dead containers" 0
    (Stack.pending_work rig.stack)

(* Regression (found by the scenario fuzzer): data buffered before a
   connection is rebound must move its memory charge with the binding, or
   draining and closing afterwards refunds the new container for bytes it
   was never charged — a negative balance. *)
let test_rebind_moves_buffered_charge () =
  let rig = make_rig Stack.Rc in
  Container.arm_strict_memory (Container.run rig.root);
  let listen = Socket.make_unbound_listen ~port:80 (Container.run rig.root) in
  Stack.add_listen rig.stack listen;
  let the_conn = ref None in
  connect_one rig ~on_established:(fun conn -> the_conn := Some conn);
  run rig (Simtime.ms 10);
  let conn = match !the_conn with Some c -> c | None -> Alcotest.fail "no conn" in
  Stack.client_send rig.stack conn (Payload.make ~tag:"r" ~bytes:500 (Sim.now rig.sim));
  run rig (Simtime.ms 10);
  Alcotest.(check int) "charged to the pre-bind owner" 500
    (Rescont.Usage.memory_bytes (Container.usage rig.owner));
  (* The server accepts and gives the connection its own container —
     the per-connection policy. *)
  let per_conn = Container.create ~parent:rig.root ~name:"conn-1" () in
  Socket.bind_container conn per_conn;
  Alcotest.(check int) "charge moved off the old owner" 0
    (Rescont.Usage.memory_bytes (Container.usage rig.owner));
  Alcotest.(check int) "charge moved onto the new container" 500
    (Rescont.Usage.memory_bytes (Container.usage per_conn));
  (* Drain then close: both refunds must hit the rebound container
     without driving any balance negative (strict mode would raise). *)
  ignore (Stack.recv rig.stack conn);
  Alcotest.(check int) "drain refunds the new container" 0
    (Rescont.Usage.memory_bytes (Container.usage per_conn));
  Stack.client_send rig.stack conn (Payload.make ~tag:"s" ~bytes:300 (Sim.now rig.sim));
  run rig (Simtime.ms 10);
  ignore
    (Machine.spawn rig.machine ~name:"closer" ~container:rig.owner (fun () ->
         Stack.close rig.stack conn));
  run rig (Simtime.ms 10);
  Alcotest.(check int) "close refunds the rebound container too" 0
    (Rescont.Usage.memory_bytes (Container.usage per_conn));
  Alcotest.(check int) "whole subtree balances" 0
    (Rescont.Usage.memory_bytes (Container.subtree_usage rig.root))

(* Every half-open connection that dies — evicted on overflow or timed out
   — is dropped {e exactly once}: the listener's counter, the stack-wide
   counter and the §5.7 notification callback all agree, and they equal
   injected minus still-pending. *)
let prop_syn_drops_exactly_once =
  QCheck2.Test.make ~name:"evict/purge drop exactly once" ~count:30
    QCheck2.Gen.(pair (int_range 1 8) (int_range 0 40))
    (fun (syn_backlog, n) ->
      let sim = Sim.create () in
      let root = Container.create_root () in
      let policy = Sched.Multilevel.make ~root () in
      let machine = Machine.create ~sim ~policy:(fun () -> policy) ~root () in
      let proc = Process.create machine ~name:"srv" () in
      let stack =
        Stack.create ~machine ~mode:Stack.Softirq ~syn_timeout:(Simtime.ms 50)
          ~owner:(Process.default_container proc) ()
      in
      let listen = Socket.make_unbound_listen ~port:80 ~syn_backlog (Container.run root) in
      Stack.add_listen stack listen;
      let notified = ref 0 in
      Stack.set_on_syn_drop stack (fun _ _ -> incr notified);
      let run span = Machine.run_until machine (Simtime.add (Sim.now sim) span) in
      for i = 0 to n - 1 do
        Stack.inject_syn stack ~src:(Ipaddr.offset (Ipaddr.v 192 168 66 1) i) ~port:80
      done;
      run (Simtime.ms 10);
      (* Let the survivors time out, then one trailing SYN makes the stack
         purge the queue. *)
      run (Simtime.ms 60);
      Stack.inject_syn stack ~src:(Ipaddr.v 192 168 67 1) ~port:80;
      run (Simtime.ms 10);
      let injected = n + 1 in
      let live =
        Queue.fold
          (fun acc c -> if c.Socket.state = Socket.Syn_rcvd then acc + 1 else acc)
          0 listen.Socket.syn_queue
      in
      let drops = (Stack.stats stack).Stack.syn_queue_drops in
      drops = listen.Socket.syn_drops && drops = !notified && drops = injected - live)

let test_remove_listen () =
  let rig = make_rig Stack.Rc in
  let listen = Socket.make_unbound_listen ~port:80 (Container.run rig.root) in
  Stack.add_listen rig.stack listen;
  Stack.remove_listen rig.stack listen;
  let refused = ref false in
  Stack.connect rig.stack ~src:(Ipaddr.v 10 0 0 1) ~port:80
    ~handlers:{ quiet_handlers with Socket.on_refused = (fun () -> refused := true) }
    ();
  run rig (Simtime.ms 10);
  Alcotest.(check bool) "closed listen refuses" true !refused;
  Alcotest.(check int) "no listens left" 0 (List.length (Stack.listens rig.stack))

(* Listen ids are unique only within a run, so a stack installs only its
   own run's sockets: one made in another rig's run, bound or not, is
   refused before the stack changes. *)
let test_add_listen_refuses_other_run () =
  let rig = make_rig Stack.Rc and other = make_rig Stack.Rc in
  let refused l =
    match Stack.add_listen rig.stack l with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "unbound socket of another run" true
    (refused (Socket.make_unbound_listen ~port:80 (Container.run other.root)));
  Alcotest.(check bool) "socket bound to another run's container" true
    (refused (Socket.make_listen ~port:80 ~container:other.owner ()));
  Alcotest.(check int) "nothing installed" 0 (List.length (Stack.listens rig.stack));
  Alcotest.(check bool) "own run's socket installs" false
    (refused (Socket.make_unbound_listen ~port:80 (Container.run rig.root)))

let test_link_serialisation () =
  let rig = make_rig Stack.Rc in
  let listen = Socket.make_unbound_listen ~port:80 (Container.run rig.root) in
  Stack.add_listen rig.stack listen;
  (* A 1.25 MB message at 100 Mbps takes ~100 ms on the wire (plus ~21 ms
     of send-path CPU); a tiny message sent right after must not overtake
     it (per-connection FIFO). *)
  let t0 = ref Simtime.zero in
  let big_at = ref Simtime.zero and small_at = ref Simtime.zero in
  let observed = ref [] in
  Stack.connect rig.stack ~src:(Ipaddr.v 10 0 0 2) ~port:80
    ~handlers:
      {
        quiet_handlers with
        Socket.on_established =
          (fun conn ->
            ignore
              (Machine.spawn rig.machine ~name:"sender" ~container:rig.owner (fun () ->
                   t0 := Sim.now rig.sim;
                   Stack.send rig.stack conn (Payload.make ~tag:"big" ~bytes:1_250_000 !t0);
                   Stack.send rig.stack conn (Payload.make ~tag:"small" ~bytes:100 !t0))));
        on_response =
          (fun _ p ->
            observed := p.Payload.tag :: !observed;
            if p.Payload.tag = "big" then big_at := Sim.now rig.sim
            else small_at := Sim.now rig.sim);
      }
    ();
  run rig (Simtime.ms 400);
  Alcotest.(check (list string)) "delivery order" [ "big"; "small" ] (List.rev !observed);
  let big_ms = Simtime.span_to_ms_f (Simtime.diff !big_at !t0) in
  Alcotest.(check bool) "1.25MB takes ~100ms wire + ~21ms CPU" true
    (big_ms > 95. && big_ms < 140.);
  Alcotest.(check bool) "small does not overtake" true Simtime.(!small_at >= !big_at)

(* LRP charges the receiving process even when a connection is bound to a
   container; RC charges the bound container — §3.2 vs §4.7. *)
let test_lrp_vs_rc_charging () =
  let charged_to_conn mode =
    let rig = make_rig mode in
    let c = Container.create ~parent:rig.root ~name:"conn-c" () in
    let listen = Socket.make_listen ~port:80 ~container:c () in
    Stack.add_listen rig.stack listen;
    let the_conn = ref None in
    connect_one rig ~on_established:(fun conn -> the_conn := Some conn);
    run rig (Simtime.ms 20);
    (match !the_conn with
    | Some conn ->
        Socket.bind_container conn c;
        Stack.client_send rig.stack conn (Payload.make ~bytes:500 (Sim.now rig.sim))
    | None -> Alcotest.fail "no conn");
    run rig (Simtime.ms 20);
    Simtime.span_to_ns (Rescont.Usage.cpu_total (Container.usage c)) > 0
  in
  Alcotest.(check bool) "RC charges the bound container" true (charged_to_conn Stack.Rc);
  Alcotest.(check bool) "LRP charges the process instead" false (charged_to_conn Stack.Lrp)

let test_pp_tree () =
  let rig = make_rig Stack.Rc in
  let child = Container.create ~parent:rig.root ~name:"leafy" () in
  Container.charge_cpu child ~kernel:false (Simtime.ms 1);
  let rendered = Format.asprintf "%a" Container.pp_tree rig.root in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
    m = 0 || scan 0
  in
  Alcotest.(check bool) "mentions child" true (contains rendered "leafy");
  Alcotest.(check bool) "mentions root" true (contains rendered "root")

let test_net_routing () =
  let rig_a = make_rig Stack.Rc in
  (* Second machine sharing the same event engine. *)
  let root_b = Container.create_root () in
  let machine_b =
    Machine.create ~sim:rig_a.sim
      ~policy:(fun () -> Sched.Multilevel.make ~root:root_b ())
      ~root:root_b ()
  in
  let proc_b = Process.create machine_b ~name:"b" () in
  let stack_b =
    Stack.create ~machine:machine_b ~mode:Stack.Rc ~owner:(Process.default_container proc_b) ()
  in
  let addr_a = Ipaddr.v 172 16 0 1 and addr_b = Ipaddr.v 172 16 0 2 in
  let net = Netsim.Net.create ~sim:rig_a.sim () in
  Netsim.Net.attach net ~addr:addr_a rig_a.stack;
  Netsim.Net.attach net ~addr:addr_b stack_b;
  Alcotest.(check int) "two machines" 2 (List.length (Netsim.Net.machines net));
  Alcotest.(check bool) "duplicate rejected" true
    (try Netsim.Net.attach net ~addr:addr_a stack_b; false with Invalid_argument _ -> true);
  let listen_b = Socket.make_unbound_listen ~port:80 (Container.run root_b) in
  Stack.add_listen stack_b listen_b;
  let established = ref false and refused = ref false in
  Netsim.Net.connect net ~src:addr_a ~dst:addr_b ~port:80
    ~handlers:
      { quiet_handlers with Socket.on_established = (fun _ -> established := true) }
    ();
  Netsim.Net.connect net ~src:addr_a ~dst:(Ipaddr.v 172 16 0 99) ~port:80
    ~handlers:{ quiet_handlers with Socket.on_refused = (fun () -> refused := true) }
    ();
  run rig_a (Simtime.ms 50);
  Machine.run_until machine_b (Simtime.add (Sim.now rig_a.sim) (Simtime.ms 50));
  Alcotest.(check bool) "cross-machine handshake" true !established;
  Alcotest.(check bool) "unknown host refused" true !refused

let suite =
  [
    Alcotest.test_case "ipaddr roundtrip" `Quick test_ipaddr_roundtrip;
    Alcotest.test_case "ipaddr invalid" `Quick test_ipaddr_invalid;
    Alcotest.test_case "ipaddr prefix" `Quick test_ipaddr_prefix;
    Alcotest.test_case "flow hash non-negative" `Quick test_flow_hash_nonnegative;
    Alcotest.test_case "ipaddr offset" `Quick test_ipaddr_offset;
    Alcotest.test_case "filter matching" `Quick test_filter_matching;
    Alcotest.test_case "filter complement" `Quick test_filter_complement;
    Alcotest.test_case "filter specificity" `Quick test_filter_specificity;
    QCheck_alcotest.to_alcotest prop_complement_is_negation;
    Alcotest.test_case "payload" `Quick test_payload;
    Alcotest.test_case "handshake all modes" `Quick test_handshake_establishes;
    Alcotest.test_case "no listener refused" `Quick test_no_listener_refused;
    Alcotest.test_case "filter demux" `Quick test_filter_demux_most_specific;
    Alcotest.test_case "request/response roundtrip" `Quick test_request_response_roundtrip;
    Alcotest.test_case "client close surfaces" `Quick test_client_close_surfaces;
    Alcotest.test_case "syn queue eviction" `Quick test_syn_queue_eviction;
    Alcotest.test_case "syn drop notification" `Quick test_syn_drop_notification;
    Alcotest.test_case "RC early discard" `Quick test_early_discard_in_rc;
    Alcotest.test_case "idle class processed at idle" `Quick test_idle_class_processed_when_idle;
    Alcotest.test_case "softirq steals from current" `Quick test_softirq_steals_from_current;
    Alcotest.test_case "socket buffer memory" `Quick test_socket_buffer_memory;
    Alcotest.test_case "memory limit drops" `Quick test_memory_limit_drops;
    Alcotest.test_case "close refunds buffered rx" `Quick test_close_refunds_buffered_rx;
    Alcotest.test_case "demux tie-break order independent" `Quick
      test_demux_tie_break_order_independent;
    Alcotest.test_case "demux specificity both orders" `Quick test_demux_specificity_both_orders;
    Alcotest.test_case "tables bounded under churn" `Slow test_tables_bounded_under_container_churn;
    Alcotest.test_case "never-served containers in creation order" `Quick
      test_never_served_in_creation_order;
    Alcotest.test_case "rebind moves buffered charge" `Quick test_rebind_moves_buffered_charge;
    QCheck_alcotest.to_alcotest prop_syn_drops_exactly_once;
    Alcotest.test_case "SYN timeout counted" `Quick test_syn_timeout_counted;
    Alcotest.test_case "add_service coverage" `Quick test_add_service_covers;
    Alcotest.test_case "remove listen" `Quick test_remove_listen;
    Alcotest.test_case "add_listen refuses another run's socket" `Quick
      test_add_listen_refuses_other_run;
    Alcotest.test_case "link serialisation + FIFO" `Quick test_link_serialisation;
    Alcotest.test_case "LRP vs RC charging" `Quick test_lrp_vs_rc_charging;
    Alcotest.test_case "container tree dump" `Quick test_pp_tree;
    Alcotest.test_case "net routing fabric" `Quick test_net_routing;
    QCheck_alcotest.to_alcotest prop_memory_balance;
  ]
