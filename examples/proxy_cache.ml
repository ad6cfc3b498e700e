(* A caching Web proxy in front of an origin server (paper §2: "most of
   the issues also apply to other servers, such as ... proxy servers").

   Two simulated machines share one event engine: an origin server and a
   proxy.  The proxy serves a Zipf-popular document set from a small local
   cache and fetches misses from the origin over the simulated network.
   Premium clients (a filtered /24) are bound to a high-priority container
   on the proxy, so their requests — including the proxy-side processing
   of their upstream fetches — win under overload.

   Modelling note: the proxy's upstream connection uses the origin stack's
   client interface; the proxy charges its own receive-path CPU for the
   fetched bytes explicitly on its fetcher thread, bound to the container
   of the class that caused the fetch.

   Run with: dune exec examples/proxy_cache.exe *)

module Simtime = Engine.Simtime
module Sim = Engine.Sim
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Machine = Procsim.Machine
module Process = Procsim.Process
module Socket = Netsim.Socket
module Stack = Netsim.Stack
module Ipaddr = Netsim.Ipaddr
module Payload = Netsim.Payload
module Http = Httpsim.Http
module Costs = Httpsim.Costs

let doc_count = 150
let doc_bytes = 8_192
let premium_src = Ipaddr.v 10 99 0 1

(* One simulated machine: its own CPU, scheduler and container tree. *)
let make_machine sim name =
  let root = Container.create_root () in
  let machine = Machine.create ~sim ~policy:(fun () -> Sched.Multilevel.make ~root ()) ~root () in
  let proc = Process.create machine ~name () in
  let stack = Stack.create ~machine ~mode:Stack.Rc ~owner:(Process.default_container proc) () in
  (root, machine, proc, stack)

type pending = { path : string; waiters : Socket.conn list; container : Container.t }

let origin_addr = Ipaddr.v 172 16 0 1
let proxy_addr = Ipaddr.v 172 16 0 2

let () =
  let sim = Sim.create () in
  let net = Netsim.Net.create ~sim () in

  (* Origin machine: a plain RC event-driven server with everything cached. *)
  let origin_root, origin_machine, origin_proc, origin_stack = make_machine sim "origin" in
  Netsim.Net.attach net ~addr:origin_addr origin_stack;
  let origin_cache = Httpsim.File_cache.create () in
  for i = 1 to doc_count do
    Httpsim.File_cache.add_document origin_cache
      ~path:(Printf.sprintf "/doc/d%d" i)
      ~bytes:doc_bytes
  done;
  Httpsim.File_cache.warm origin_cache;
  let origin_listen = Socket.make_unbound_listen ~port:80 (Container.run origin_root) in
  let origin_server =
    Httpsim.Event_server.create ~stack:origin_stack ~process:origin_proc ~cache:origin_cache
      ~listens:[ origin_listen ] ()
  in
  ignore (Httpsim.Event_server.start origin_server);

  (* Proxy machine: premium and standard client classes, a small cache. *)
  let proxy_root, proxy_machine, proxy_proc, proxy_stack = make_machine sim "proxy" in
  Netsim.Net.attach net ~addr:proxy_addr proxy_stack;
  let premium =
    Container.create ~parent:proxy_root ~name:"premium"
      ~attrs:(Attrs.timeshare ~priority:50 ())
      ()
  and standard =
    Container.create ~parent:proxy_root ~name:"standard"
      ~attrs:(Attrs.timeshare ~priority:10 ())
      ()
  in
  let proxy_listens =
    [
      Socket.make_listen ~port:8080
        ~filter:(Netsim.Filter.prefix ~template:premium_src ~bits:24)
        ~container:premium ();
      Socket.make_listen ~port:8080 ~container:standard ();
    ]
  in
  List.iter (Stack.add_listen proxy_stack) proxy_listens;
  (* A small proxy cache: ~1/4 of the document set fits. *)
  let proxy_cache = Httpsim.File_cache.create ~capacity_bytes:(40 * doc_bytes) () in
  for i = 1 to doc_count do
    Httpsim.File_cache.add_document proxy_cache
      ~path:(Printf.sprintf "/doc/d%d" i)
      ~bytes:doc_bytes
  done;

  let proxy_wq = Machine.Waitq.create ~name:"proxy" proxy_machine in
  Stack.add_on_event proxy_stack (fun () -> Machine.Waitq.signal proxy_wq);
  let conns : Socket.conn list ref = ref [] in
  let fetches : (string, pending) Hashtbl.t = Hashtbl.create 32 in
  let completions : (pending * Payload.t) Queue.t = Queue.create () in
  let upstream_fetches = ref 0 in
  let hits = ref 0 and misses = ref 0 in

  let class_of conn =
    match conn.Socket.container with Some c -> c | None -> standard
  in
  let respond conn path =
    Machine.cpu ~kernel:true (Simtime.span_add Costs.write_syscall Costs.request_misc);
    Stack.send proxy_stack conn
      (Http.response ~now:(Sim.now sim) (Http.meta_of_path path) ~body_bytes:doc_bytes);
    Machine.cpu ~kernel:true Costs.close_syscall;
    Stack.close proxy_stack conn;
    conns := List.filter (fun c -> c.Socket.conn_id <> conn.Socket.conn_id) !conns
  in
  (* Start an upstream fetch on behalf of a class container. *)
  let start_fetch pending =
    incr upstream_fetches;
    Hashtbl.replace fetches pending.path pending;
    (* Routed over the fabric, like any other host-to-host connection. *)
    Netsim.Net.connect net ~src:proxy_addr ~dst:origin_addr ~port:80
      ~handlers:
        {
          Socket.null_handlers with
          Socket.on_established =
            (fun upstream ->
              Stack.client_send origin_stack upstream
                (Http.request ~now:(Sim.now sim) ~path:pending.path ()));
          on_response =
            (fun _upstream payload ->
              match Hashtbl.find_opt fetches pending.path with
              | Some p ->
                  Hashtbl.remove fetches pending.path;
                  Queue.push (p, payload) completions;
                  Machine.Waitq.signal proxy_wq
              | None -> ());
        }
      ()
  in
  (* Proxy main loop, one work item per iteration in container-priority
     order (the scalable-event-API style of §5.5): a premium request never
     waits behind a batch of standard work. *)
  let prio c = (Container.attrs c).Attrs.priority in
  let do_completion pending payload self =
    Machine.rebind proxy_machine (self ()) pending.container;
    let packets = Payload.packet_count ~mtu:1460 payload in
    Machine.cpu ~kernel:true
      (Simtime.span_scale (float_of_int packets)
         (Stack.costs proxy_stack).Netsim.Stack.data_rx_process);
    ignore (Httpsim.File_cache.lookup proxy_cache ~path:pending.path);
    List.iter (fun conn -> respond conn pending.path) pending.waiters
  in
  let do_accept listen =
    match Stack.accept proxy_stack listen with
    | Some conn ->
        Machine.cpu ~kernel:true (Simtime.span_add Costs.accept_syscall Costs.conn_setup_misc);
        (* Bind the connection to its class container (Inherit_listen). *)
        (match listen.Socket.listen_container with
        | Some c -> Socket.bind_container conn c
        | None -> ());
        conns := !conns @ [ conn ]
    | None -> ()
  in
  let do_request conn self =
    match Stack.recv proxy_stack conn with
    | None ->
        if conn.Socket.state = Socket.Close_wait || conn.Socket.state = Socket.Closed then
          conns := List.filter (fun c -> c.Socket.conn_id <> conn.Socket.conn_id) !conns
    | Some payload -> (
        let klass = class_of conn in
        Machine.rebind proxy_machine (self ()) klass;
        Machine.cpu ~kernel:true Costs.read_parse;
        let meta = Http.parse payload in
        let path = meta.Http.path in
        match Httpsim.File_cache.lookup proxy_cache ~path with
        | Httpsim.File_cache.Hit _ ->
            incr hits;
            Machine.cpu ~kernel:true Costs.cache_hit;
            respond conn path
        | Httpsim.File_cache.Miss _ | Httpsim.File_cache.Not_found_doc -> (
            incr misses;
            Machine.cpu ~kernel:true Costs.cache_hit;
            match Hashtbl.find_opt fetches path with
            | Some pending ->
                Hashtbl.replace fetches path
                  { pending with waiters = conn :: pending.waiters }
            | None -> start_fetch { path; waiters = [ conn ]; container = klass }))
  in
  let proxy_body () =
    let self () = Machine.self () in
    let rec loop () =
      let candidates =
        (match Queue.peek_opt completions with
        | Some (pending, _) ->
            [ (prio pending.container, fun () ->
                  match Queue.take_opt completions with
                  | Some (p, payload) -> do_completion p payload self
                  | None -> ()) ]
        | None -> [])
        @ List.filter_map
            (fun listen ->
              if Socket.accept_ready listen then
                match listen.Socket.listen_container with
                | Some c -> Some (prio c, fun () -> do_accept listen)
                | None -> Some (0, fun () -> do_accept listen)
              else None)
            proxy_listens
        @ List.filter_map
            (fun conn ->
              if Socket.readable conn then
                Some (prio (class_of conn), fun () -> do_request conn self)
              else None)
            !conns
      in
      match List.stable_sort (fun (a, _) (b, _) -> compare b a) candidates with
      | (_, work) :: _ ->
          work ();
          loop ()
      | [] ->
          Machine.Waitq.wait proxy_wq;
          loop ()
    in
    loop ()
  in
  ignore (Process.spawn_thread proxy_proc ~name:"proxy-loop" proxy_body);

  (* Client populations against the proxy. *)
  let mix =
    List.init doc_count (fun i ->
        (1. /. float_of_int (i + 1), Printf.sprintf "/doc/d%d" (i + 1)))
  in
  let vip =
    Workload.Sclient.create ~stack:proxy_stack ~name:"vip" ~src_base:premium_src ~port:8080
      ~path_mix:mix ~jitter:(Simtime.ms 1) ~seed:3 ~count:3 ()
  in
  let crowd =
    Workload.Sclient.create ~stack:proxy_stack ~name:"crowd" ~src_base:(Ipaddr.v 10 1 0 1)
      ~port:8080 ~path_mix:mix ~jitter:(Simtime.ms 1) ~seed:7 ~count:24 ()
  in
  Workload.Sclient.start vip;
  Workload.Sclient.start crowd;

  Machine.run_until proxy_machine (Simtime.add Simtime.zero (Simtime.sec 3));
  Workload.Sclient.reset_stats vip;
  Workload.Sclient.reset_stats crowd;
  let fetches0 = !upstream_fetches in
  let window = Simtime.sec 8 in
  Machine.run_until proxy_machine (Simtime.add (Sim.now sim) window);

  let secs = Simtime.span_to_sec_f window in
  Format.printf "Caching proxy in front of an origin server (Zipf document mix):@.";
  Format.printf "  proxy hit ratio         : %.0f%% (%d hits / %d misses)@."
    (100. *. float_of_int !hits /. float_of_int (max 1 (!hits + !misses)))
    !hits !misses;
  Format.printf "  upstream fetches        : %.0f/s (origin offloaded)@."
    (float_of_int (!upstream_fetches - fetches0) /. secs);
  Format.printf "  premium  (3 clients)    : %4.0f req/s, mean %5.2f ms@."
    (float_of_int (Workload.Sclient.completed vip) /. secs)
    (Engine.Stats.Summary.mean (Workload.Sclient.response_times vip));
  Format.printf "  standard (24 clients)   : %4.0f req/s, mean %5.2f ms@."
    (float_of_int (Workload.Sclient.completed crowd) /. secs)
    (Engine.Stats.Summary.mean (Workload.Sclient.response_times crowd));
  Format.printf "  origin CPU consumed     : %a (proxy absorbed the popular head)@."
    Simtime.pp_span
    (Machine.busy_time origin_machine)
