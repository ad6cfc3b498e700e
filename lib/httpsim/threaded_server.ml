module Simtime = Engine.Simtime
module Machine = Procsim.Machine
module Process = Procsim.Process
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Ops = Rescont.Ops
module Socket = Netsim.Socket
module Stack = Netsim.Stack

type t = {
  stack : Stack.t;
  process : Process.t;
  cache : File_cache.t;
  disk : Disksim.Disk.t option;
  workers : int;
  policy : Event_server.policy;
  dynamic_handler : (Socket.conn -> Http.meta -> unit) option;
  listens : Socket.listen list;
  wq : Machine.Waitq.t;
  served : Engine.Metrics.counter;
  accepts : Engine.Metrics.counter;
  mutable active : int;
  mutable started : bool;
}

let create ~stack ~process ~cache ?disk ?(workers = 16)
    ?(policy = Event_server.No_containers) ?dynamic_handler ~listens () =
  let machine = Stack.machine stack in
  let registry = Machine.metrics machine in
  let labels = [ ("server", Process.name process) ] in
  let t =
    {
      stack;
      process;
      cache;
      disk;
      workers;
      policy;
      dynamic_handler;
      listens;
      wq = Machine.Waitq.create machine;
      served = Engine.Metrics.counter registry ~labels "http.static_served";
      accepts = Engine.Metrics.counter registry ~labels "http.accepts";
      active = 0;
      started = false;
    }
  in
  Engine.Metrics.gauge registry ~labels "http.active_workers" (fun () -> float_of_int t.active);
  List.iter (Stack.add_listen stack) listens;
  (* All idle workers race for each event; the first to run claims it. *)
  Stack.add_on_event stack (fun () -> Machine.Waitq.broadcast t.wq);
  t

let served t = Engine.Metrics.counter_value t.served
let accepts t = Engine.Metrics.counter_value t.accepts

let try_accept t =
  let rec scan = function
    | [] -> None
    | l :: rest -> (
        match Stack.accept t.stack l with
        | Some conn -> Some (l, conn)
        | None -> scan rest)
  in
  scan t.listens

let respond t conn meta =
  let close_now = Serve.static ~stack:t.stack ~cache:t.cache ?disk:t.disk conn meta in
  Engine.Metrics.incr t.served;
  close_now

type disposition = Close_now | Keep_serving | Detached

let handle_request t conn payload =
  let meta = Serve.parse_request payload in
  match (Http.is_dynamic meta, t.dynamic_handler) with
  | true, Some handler ->
      handler conn meta;
      (* The CGI worker owns the connection from here on: it will send the
         response and close; this worker must not touch the socket again. *)
      Detached
  | (true | false), _ -> if respond t conn meta then Close_now else Keep_serving

(* Serve one connection to completion. *)
let serve_conn t listen conn =
  let machine = Stack.machine t.stack in
  Machine.cpu ~kernel:true (Simtime.span_add Costs.accept_syscall Costs.conn_setup_misc);
  Engine.Metrics.incr t.accepts;
  let container_ref =
    match t.policy with
    | Event_server.No_containers -> None
    | Event_server.Inherit_listen ->
        (match listen.Socket.listen_container with
        | Some c ->
            Socket.bind_container conn c;
            Machine.cpu ~kernel:true Ops.Cost.rebind_thread;
            Machine.rebind machine (Machine.self ()) c
        | None -> ());
        None
    | Event_server.Per_connection { parent; priority_of } ->
        let c = Event_server.conn_container ~prefix:"tconn-" ~parent ~priority_of conn in
        Machine.cpu ~kernel:true Ops.Cost.rebind_thread;
        Machine.rebind machine (Machine.self ()) c;
        Some c
  in
  let rec conn_loop () =
    match Stack.recv t.stack conn with
    | Some payload -> (
        match handle_request t conn payload with
        | Detached -> ()
        | Close_now ->
            if conn.Socket.state <> Socket.Closed then begin
              Machine.cpu ~kernel:true Costs.close_syscall;
              Stack.close t.stack conn
            end
        | Keep_serving -> conn_loop ())
    | None -> (
        match conn.Socket.state with
        | Socket.Close_wait | Socket.Closed ->
            Machine.cpu ~kernel:true Costs.close_syscall;
            Stack.close t.stack conn
        | Socket.Established | Socket.Syn_rcvd ->
            Machine.Waitq.wait t.wq;
            conn_loop ())
  in
  conn_loop ();
  (* Back to the pool: rebind to the process principal and release the
     per-connection container. *)
  match container_ref with
  | Some c ->
      Machine.cpu ~kernel:true Ops.Cost.rebind_thread;
      Machine.rebind machine (Machine.self ()) (Process.default_container t.process);
      Container.release c
  | None -> (
      match t.policy with
      | Event_server.Inherit_listen ->
          Machine.rebind machine (Machine.self ()) (Process.default_container t.process)
      | Event_server.No_containers | Event_server.Per_connection _ -> ())

let worker_body t () =
  let rec loop () =
    match try_accept t with
    | Some (listen, conn) ->
        t.active <- t.active + 1;
        serve_conn t listen conn;
        t.active <- t.active - 1;
        loop ()
    | None ->
        Machine.Waitq.wait t.wq;
        loop ()
  in
  loop ()

let start t =
  if t.started then invalid_arg "Threaded_server.start: already started";
  t.started <- true;
  for i = 1 to t.workers do
    ignore
      (Process.spawn_thread t.process ~name:(Printf.sprintf "worker-%d" i) (worker_body t))
  done
