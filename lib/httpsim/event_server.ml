module Simtime = Engine.Simtime
module Machine = Procsim.Machine
module Process = Procsim.Process
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Ops = Rescont.Ops
module Socket = Netsim.Socket
module Stack = Netsim.Stack

type api = Select | Event_api

type policy =
  | No_containers
  | Inherit_listen
  | Per_connection of {
      parent : Rescont.Container.t;
      priority_of : Netsim.Socket.conn -> int;
    }

type tracked = {
  conn : Socket.conn;
  mutable desc : Rescont.Desc_table.desc option; (* per-connection container handle *)
}

(* One slot of the reusable ready-set buffer.  A poll round used to build
   two lists, append them and [stable_sort] the result — a pile of cons
   cells and closures per round, i.e. per request.  The slots below are
   allocated once and refilled; [ev_listen]/[ev_tracked] hold server-owned
   dummies while a slot is parked so it pins nothing.  The event API fills
   exactly one: the head of the ready set (see [scan]). *)
type ev = {
  mutable ev_prio : int;
  mutable ev_kind : int; (* 0 = accept (listen ready), 1 = conn ready *)
  mutable ev_listen : Socket.listen;
  mutable ev_tracked : tracked;
}

let parked listen tracked = { ev_prio = 0; ev_kind = 0; ev_listen = listen; ev_tracked = tracked }

type t = {
  stack : Stack.t;
  process : Process.t;
  cache : File_cache.t;
  disk : Disksim.Disk.t option;
  api : api;
  policy : policy;
  user_preference : Socket.conn -> int;
  dynamic_handler : (Socket.conn -> Http.meta -> unit) option;
  listens : Socket.listen list;
  nlistens : int;
  mutable conns : tracked array; (* first [nconns] live, accept = fd order *)
  mutable nconns : int;
  dummy_tracked : tracked;
  dummy_listen : Socket.listen;
  mutable events : ev array; (* select(): first [nevents] filled, priority order *)
  mutable nevents : int;
  pick : ev; (* event API: the one event the next round serves *)
  probe : ev; (* the test hooks' scratch pick; never the server's *)
  wq : Machine.Waitq.t;
  static_served : Engine.Metrics.counter;
  accepts : Engine.Metrics.counter;
  poll_rounds : Engine.Metrics.counter;
  mutable started : bool;
}

let create ~stack ~process ~cache ?disk ?(api = Select) ?(policy = No_containers)
    ?(user_preference = fun _ -> 0) ?dynamic_handler ~listens () =
  let machine = Stack.machine stack in
  let registry = Machine.metrics machine in
  let labels = [ ("server", Process.name process) ] in
  let dummy_tracked = { conn = Socket.placeholder_conn (); desc = None } in
  let dummy_listen = Socket.make_unbound_listen ~port:0 (Container.run (Machine.root machine)) in
  let t =
    {
      stack;
      process;
      cache;
      disk;
      api;
      policy;
      user_preference;
      dynamic_handler;
      listens;
      nlistens = List.length listens;
      conns = Array.make 8 dummy_tracked;
      nconns = 0;
      dummy_tracked;
      dummy_listen;
      events = [||];
      nevents = 0;
      pick = parked dummy_listen dummy_tracked;
      probe = parked dummy_listen dummy_tracked;
      wq = Machine.Waitq.create ~name:"http-server" machine;
      static_served = Engine.Metrics.counter registry ~labels "http.static_served";
      accepts = Engine.Metrics.counter registry ~labels "http.accepts";
      poll_rounds = Engine.Metrics.counter registry ~labels "http.poll_rounds";
      started = false;
    }
  in
  Engine.Metrics.gauge registry ~labels "http.open_conns" (fun () ->
      float_of_int t.nconns);
  List.iter (Stack.add_listen stack) listens;
  Stack.set_on_event stack (fun () -> Machine.Waitq.signal t.wq);
  t

let static_served t = Engine.Metrics.counter_value t.static_served
let open_conns t = t.nconns
let accepts t = Engine.Metrics.counter_value t.accepts
let poll_rounds t = Engine.Metrics.counter_value t.poll_rounds
let process t = t.process

let uses_containers t =
  match t.policy with No_containers -> false | Inherit_listen | Per_connection _ -> true

let conn_priority t tracked =
  match t.policy with
  | No_containers -> t.user_preference tracked.conn
  | Inherit_listen | Per_connection _ -> (
      match tracked.conn.Socket.container with
      | Some c -> (Container.attrs c).Attrs.priority
      | None -> 0)

let listen_priority t l =
  match t.policy with
  | No_containers -> 0
  | Inherit_listen | Per_connection _ -> (
      match l.Socket.listen_container with
      | Some c -> (Container.attrs c).Attrs.priority
      | None -> 0)

(* Charge the event-notification cost for one poll (paper §5.5). *)
let charge_poll t ~ready_count =
  match t.api with
  | Select ->
      let nfds = t.nlistens + t.nconns in
      Machine.cpu ~kernel:true
        (Simtime.span_add Costs.select_base
           (Simtime.span_scale (float_of_int nfds) Costs.select_per_fd))
  | Event_api ->
      Machine.cpu ~kernel:true
        (Simtime.span_add Costs.event_api_base
           (Simtime.span_scale (float_of_int ready_count) Costs.event_api_per_event))

(* Rebind the server thread to a connection's container, paying the
   Table 1 rebind cost. *)
let rebind_to t container =
  let machine = Stack.machine t.stack in
  Machine.cpu ~kernel:true Ops.Cost.rebind_thread;
  Machine.rebind machine (Machine.self ()) container

let rebind_default t =
  if uses_containers t then rebind_to t (Process.default_container t.process)

let track t tracked =
  if t.nconns = Array.length t.conns then begin
    let fresh = Array.make (2 * t.nconns) t.dummy_tracked in
    Array.blit t.conns 0 fresh 0 t.nconns;
    t.conns <- fresh
  end;
  t.conns.(t.nconns) <- tracked;
  t.nconns <- t.nconns + 1

let drop_tracking t tracked =
  let rec find i =
    if i >= t.nconns then -1
    else if t.conns.(i).conn.Socket.conn_id = tracked.conn.Socket.conn_id then i
    else find (i + 1)
  in
  let i = find 0 in
  if i >= 0 then begin
    (* Shift rather than swap: fd (accept) order is the select() tie-break. *)
    Array.blit t.conns (i + 1) t.conns i (t.nconns - i - 1);
    t.nconns <- t.nconns - 1;
    t.conns.(t.nconns) <- t.dummy_tracked
  end;
  match tracked.desc with
  | Some desc ->
      Machine.cpu ~kernel:true Ops.Cost.destroy;
      Ops.rc_release (Process.descriptors t.process) desc;
      tracked.desc <- None
  | None -> ()

let close_conn t tracked =
  Machine.cpu ~kernel:true Costs.close_syscall;
  Stack.close t.stack tracked.conn;
  drop_tracking t tracked

let accept_one t listen conn =
  Machine.cpu ~kernel:true (Simtime.span_add Costs.accept_syscall Costs.conn_setup_misc);
  Engine.Metrics.incr t.accepts;
  let tracked = { conn; desc = None } in
  (match t.policy with
  | No_containers -> ()
  | Inherit_listen -> (
      match listen.Socket.listen_container with
      | Some c -> Socket.bind_container conn c
      | None -> ())
  | Per_connection { parent; priority_of } ->
      Machine.cpu ~kernel:true Ops.Cost.create;
      let attrs = Attrs.timeshare ~priority:(priority_of conn) () in
      let desc =
        Ops.rc_create (Process.descriptors t.process) ~parent
          ~name:(Printf.sprintf "conn-%d" conn.Socket.conn_id)
          ~attrs ()
      in
      tracked.desc <- Some desc;
      Socket.bind_container conn (Rescont.Desc_table.lookup (Process.descriptors t.process) desc));
  track t tracked

let respond t tracked meta =
  let close_now = Serve.static ~stack:t.stack ~cache:t.cache ?disk:t.disk tracked.conn meta in
  Engine.Metrics.incr t.static_served;
  if close_now then close_conn t tracked

let handle_request t tracked payload =
  let meta = Serve.parse_request payload in
  match (Http.is_dynamic meta, t.dynamic_handler) with
  | true, Some handler -> handler tracked.conn meta
  | (true | false), _ -> respond t tracked meta

let handle_conn t tracked =
  (match tracked.conn.Socket.container with
  | Some c when uses_containers t -> rebind_to t c
  | Some _ | None -> ());
  match Stack.recv t.stack tracked.conn with
  | Some payload -> handle_request t tracked payload
  | None -> (
      match tracked.conn.Socket.state with
      | Socket.Close_wait | Socket.Closed -> close_conn t tracked
      | Socket.Established | Socket.Syn_rcvd -> ())

let is_ready tracked =
  Socket.readable tracked.conn || tracked.conn.Socket.state = Socket.Closed

let ensure_events t n =
  if Array.length t.events < n then begin
    let cap = max n (2 * max 4 (Array.length t.events)) in
    let fresh = Array.init cap (fun _ -> parked t.dummy_listen t.dummy_tracked) in
    Array.blit t.events 0 fresh 0 (Array.length t.events);
    t.events <- fresh
  end

(* In-place stable insertion sort of the filled prefix: higher priority
   first, accepts before data at equal priority (the listen descriptor has
   the lowest fd).  Slots were filled listens-first then conns in fd
   order, so stability reproduces the old
   [listen_events @ conn_events |> stable_sort] ordering exactly.  Ready
   sets are small (bounded by open descriptors), so quadratic worst case
   is irrelevant next to the allocation it avoids. *)
let sort_events t =
  let a = t.events in
  for i = 1 to t.nevents - 1 do
    let key = a.(i) in
    let j = ref (i - 1) in
    while
      !j >= 0
      && (a.(!j).ev_prio < key.ev_prio
         || (a.(!j).ev_prio = key.ev_prio && a.(!j).ev_kind > key.ev_kind))
    do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- key
  done

let fill_and_sort t =
  let n = ref 0 in
  let fill prio kind listen tracked =
    ensure_events t (!n + 1);
    let ev = t.events.(!n) in
    ev.ev_prio <- prio;
    ev.ev_kind <- kind;
    ev.ev_listen <- listen;
    ev.ev_tracked <- tracked;
    incr n
  in
  List.iter
    (fun l ->
      if Socket.accept_ready l then fill (listen_priority t l) 0 l t.dummy_tracked)
    t.listens;
  for i = 0 to t.nconns - 1 do
    let tracked = t.conns.(i) in
    if is_ready tracked then fill (conn_priority t tracked) 1 t.dummy_listen tracked
  done;
  t.nevents <- !n;
  sort_events t

(* The event API's poll: one read-only pass over the listens and the
   connections that counts the ready set and keeps the event
   [fill_and_sort] would put first.  The pass visits events in the order
   the stable sort breaks ties by (listens in [listens] order, then
   connections in fd order), and every accept before any data, so the
   sort's head is the first event of the highest priority: a later event
   replaces the kept one only when its priority is strictly higher.
   Allocates nothing (no closure, no boxed ref), so a poll's host cost is
   a read per open connection.  Returns the ready count. *)
let keep p ~first prio kind listen tracked =
  if first || prio > p.ev_prio then begin
    p.ev_prio <- prio;
    p.ev_kind <- kind;
    p.ev_listen <- listen;
    p.ev_tracked <- tracked
  end

let rec scan_listens t p ready = function
  | [] -> ready
  | l :: rest ->
      if Socket.accept_ready l then begin
        keep p ~first:(ready = 0) (listen_priority t l) 0 l t.dummy_tracked;
        scan_listens t p (ready + 1) rest
      end
      else scan_listens t p ready rest

let scan t p =
  let ready = ref (scan_listens t p 0 t.listens) in
  for i = 0 to t.nconns - 1 do
    let tracked = t.conns.(i) in
    if is_ready tracked then begin
      keep p ~first:(!ready = 0) (conn_priority t tracked) 1 t.dummy_listen tracked;
      incr ready
    end
  done;
  !ready

(* The ready count; the events to serve are in [pick] (event API) or the
   first [nevents] slots of [events] (select()). *)
let collect_ready t =
  match t.api with
  | Event_api -> scan t t.pick
  | Select ->
      fill_and_sort t;
      t.nevents

(* How much of the ready set one poll round works through.

   - With select() the application gets the whole ready bitmap and works
     through it, thttpd-style (accepting at most one connection per listen
     socket per round, as thttpd does); a request arriving mid-batch waits
     for the round to finish, whatever its priority.
   - The scalable event API dequeues one (priority-ordered) event at a
     time, so freshly arrived high-priority work overtakes everything that
     arrived before it. *)
let serve_event t ev =
  if ev.ev_kind = 0 then begin
    (* One accept per listen socket per round (thttpd behaviour). *)
    match Stack.accept t.stack ev.ev_listen with
    | Some conn -> accept_one t ev.ev_listen conn
    | None -> ()
  end
  else begin
    let tracked = ev.ev_tracked in
    if tracked.conn.Socket.state = Socket.Closed then drop_tracking t tracked
    else handle_conn t tracked
  end

(* Park a served slot with dummies so it retains nothing. *)
let park t ev =
  ev.ev_listen <- t.dummy_listen;
  ev.ev_tracked <- t.dummy_tracked

let serve_round t =
  match t.api with
  | Event_api ->
      serve_event t t.pick;
      park t t.pick
  | Select ->
      for i = 0 to t.nevents - 1 do
        serve_event t t.events.(i);
        park t t.events.(i)
      done;
      t.nevents <- 0

let body t () =
  let rec loop () =
    let ready = collect_ready t in
    if ready = 0 then begin
      Machine.Waitq.wait t.wq;
      loop ()
    end
    else begin
      rebind_default t;
      Engine.Metrics.incr t.poll_rounds;
      charge_poll t ~ready_count:ready;
      serve_round t;
      loop ()
    end
  in
  loop ()

let start t =
  if t.started then invalid_arg "Event_server.start: already started";
  t.started <- true;
  Process.spawn_thread t.process ~name:(Process.name t.process ^ "-loop") (body t)

type ready_event = Accept of Socket.listen | Data of Socket.conn

(* The hooks work on [probe] and on the select() buffer, which an event-API
   server never uses, so calling them mid-round disturbs nothing. *)
let check_event_api t what =
  if t.api <> Event_api then invalid_arg ("Event_server." ^ what ^ ": event-API servers only")

let event_of ev = if ev.ev_kind = 0 then Accept ev.ev_listen else Data ev.ev_tracked.conn

let scan_for_testing t =
  check_event_api t "scan_for_testing";
  let ready = scan t t.probe in
  park t t.probe;
  ready

let pick_for_testing t =
  check_event_api t "pick_for_testing";
  let ready = scan t t.probe in
  let head = if ready = 0 then None else Some (t.probe.ev_prio, event_of t.probe) in
  park t t.probe;
  (ready, head)

let sorted_for_testing t =
  check_event_api t "sorted_for_testing";
  fill_and_sort t;
  let evs = List.init t.nevents (fun i -> (t.events.(i).ev_prio, event_of t.events.(i))) in
  for i = 0 to t.nevents - 1 do
    park t t.events.(i)
  done;
  t.nevents <- 0;
  evs
