module Simtime = Engine.Simtime
module Machine = Procsim.Machine
module Process = Procsim.Process
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Ops = Rescont.Ops
module Socket = Netsim.Socket
module Stack = Netsim.Stack

type job = { conn : Socket.conn; container : Container.t option }

type worker = {
  mutable w_process : Process.t;
  w_wq : Machine.Waitq.t;
  mutable w_job : job option;
  mutable w_busy : bool;
}

type t = {
  stack : Stack.t;
  master : Process.t;
  cache : File_cache.t;
  disk : Disksim.Disk.t option;
  worker_count : int;
  policy : Event_server.policy;
  listens : Socket.listen list;
  master_wq : Machine.Waitq.t;
  mutable workers : worker list;
  backlog : job Queue.t; (* accepted, waiting for a worker *)
  served : Engine.Metrics.counter;
  accepts : Engine.Metrics.counter;
  mutable started : bool;
}

let create ~stack ~master ~cache ?disk ?(workers = 8)
    ?(policy = Event_server.No_containers) ~listens () =
  let machine = Stack.machine stack in
  let registry = Machine.metrics machine in
  let labels = [ ("server", Process.name master) ] in
  let t =
    {
      stack;
      master;
      cache;
      disk;
      worker_count = workers;
      policy;
      listens;
      master_wq = Machine.Waitq.create machine;
      workers = [];
      backlog = Queue.create ();
      served = Engine.Metrics.counter registry ~labels "http.static_served";
      accepts = Engine.Metrics.counter registry ~labels "http.accepts";
      started = false;
    }
  in
  Engine.Metrics.gauge registry ~labels "http.backlog" (fun () ->
      float_of_int (Queue.length t.backlog));
  List.iter (Stack.add_listen stack) listens;
  Stack.add_on_event stack (fun () -> Machine.Waitq.signal t.master_wq);
  t

let served t = Engine.Metrics.counter_value t.served
let accepts t = Engine.Metrics.counter_value t.accepts
let idle_workers t = List.length (List.filter (fun w -> not w.w_busy) t.workers)
let backlog t = Queue.length t.backlog

let respond t conn meta =
  let close_now = Serve.static ~stack:t.stack ~cache:t.cache ?disk:t.disk conn meta in
  Engine.Metrics.incr t.served;
  close_now

(* The body each pre-forked worker runs inside its own process. *)
let worker_body t worker () =
  let machine = Stack.machine t.stack in
  let home = Process.default_container worker.w_process in
  let serve job =
    (match job.container with
    | Some c ->
        Machine.cpu ~kernel:true Ops.Cost.rebind_thread;
        Machine.rebind machine (Machine.self ()) c
    | None -> ());
    let conn = job.conn in
    let rec conn_loop () =
      match Stack.recv t.stack conn with
      | Some payload ->
          let meta = Serve.parse_request payload in
          let close_now = respond t conn meta in
          if close_now then begin
            if conn.Socket.state <> Socket.Closed then begin
              Machine.cpu ~kernel:true Costs.close_syscall;
              Stack.close t.stack conn
            end
          end
          else conn_loop ()
      | None -> (
          match conn.Socket.state with
          | Socket.Close_wait | Socket.Closed ->
              Machine.cpu ~kernel:true Costs.close_syscall;
              Stack.close t.stack conn
          | Socket.Established | Socket.Syn_rcvd ->
              Machine.Waitq.wait worker.w_wq;
              conn_loop ())
    in
    conn_loop ();
    (match job.container with
    | Some c ->
        Machine.cpu ~kernel:true Ops.Cost.rebind_thread;
        Machine.rebind machine (Machine.self ()) home;
        Container.release c
    | None -> ())
  in
  let rec loop () =
    match worker.w_job with
    | Some job ->
        worker.w_job <- None;
        serve job;
        worker.w_busy <- false;
        (* Tell the master a worker freed up. *)
        Machine.Waitq.signal t.master_wq;
        loop ()
    | None ->
        Machine.Waitq.wait worker.w_wq;
        loop ()
  in
  loop ()

(* Workers wake on their private queue for both job handoff and socket
   events; the stack's on_event also nudges busy workers so blocked
   [conn_loop]s recheck their sockets. *)
let nudge_workers t = List.iter (fun w -> if w.w_busy then Machine.Waitq.signal w.w_wq) t.workers

let assign _t worker job =
  Machine.cpu ~kernel:true Costs.ipc_descriptor_pass;
  (match job.container with
  | Some _ -> Machine.cpu ~kernel:true Ops.Cost.move_between_processes
  | None -> ());
  worker.w_busy <- true;
  worker.w_job <- Some job;
  Machine.Waitq.signal worker.w_wq

let accept_job t listen conn =
  Machine.cpu ~kernel:true (Simtime.span_add Costs.accept_syscall Costs.conn_setup_misc);
  Engine.Metrics.incr t.accepts;
  let container =
    match t.policy with
    | Event_server.No_containers -> None
    | Event_server.Inherit_listen ->
        (match listen.Socket.listen_container with
        | Some c ->
            Socket.bind_container conn c;
            ()
        | None -> ());
        None
    | Event_server.Per_connection { parent; priority_of } ->
        Some (Event_server.conn_container ~prefix:"fconn-" ~parent ~priority_of conn)
  in
  { conn; container }

let master_body t () =
  let rec dispatch_backlog () =
    if not (Queue.is_empty t.backlog) then
      match List.find_opt (fun w -> not w.w_busy) t.workers with
      | Some worker ->
          assign t worker (Queue.pop t.backlog);
          dispatch_backlog ()
      | None -> ()
  in
  let rec loop () =
    (* Accept everything pending, then hand out work. *)
    List.iter
      (fun listen ->
        let rec accept_all () =
          match Stack.accept t.stack listen with
          | Some conn ->
              Queue.push (accept_job t listen conn) t.backlog;
              accept_all ()
          | None -> ()
        in
        accept_all ())
      t.listens;
    dispatch_backlog ();
    nudge_workers t;
    Machine.Waitq.wait t.master_wq;
    loop ()
  in
  loop ()

let start t =
  if t.started then invalid_arg "Forked_server.start: already started";
  t.started <- true;
  let machine = Stack.machine t.stack in
  (* Pre-fork the worker pool (paper Fig. 1). *)
  for i = 1 to t.worker_count do
    Machine.steal_time machine ~cost:Costs.fork
      ~charge:(`Container (Process.default_container t.master));
    let make_worker () =
      (* The worker record exists before the fork so the body can capture
         it; the process field is patched in right after. *)
      let wq = Machine.Waitq.create machine in
      let worker = { w_process = t.master; w_wq = wq; w_job = None; w_busy = false } in
      let process, _thread =
        Process.fork t.master ~name:(Printf.sprintf "httpd-w%d" i) (worker_body t worker)
      in
      worker.w_process <- process;
      worker
    in
    t.workers <- make_worker () :: t.workers
  done;
  ignore (Process.spawn_thread t.master ~name:"httpd-master" (master_body t))
