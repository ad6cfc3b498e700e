module Simtime = Engine.Simtime
module Machine = Procsim.Machine
module Process = Procsim.Process
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Ops = Rescont.Ops
module Socket = Netsim.Socket
module Stack = Netsim.Stack

type mode = Fork_per_request | Persistent_pool of int

type job = { conn : Socket.conn; meta : Http.meta; container : Container.t option }

type t = {
  stack : Stack.t;
  server_process : Process.t;
  cgi_parent : Container.t option;
  compute : Simtime.span;
  mode : mode;
  mutable active : int;
  mutable completed : int;
  mutable spawned : int;
  jobs : job Queue.t;
  mutable pool_wq : Machine.Waitq.t option;
  mutable pool_started : bool;
  mutable principals : Container.t list; (* every container CGI work was charged to *)
}

let machine t = Stack.machine t.stack
let response_bytes = 1024

let track_principal t c =
  if not (List.exists (fun x -> Container.id x = Container.id c) t.principals) then
    t.principals <- c :: t.principals

let run_job t job =
  (match job.container with
  | Some c ->
      Machine.cpu ~kernel:true Ops.Cost.rebind_thread;
      Machine.rebind (machine t) (Machine.self ()) c
  | None -> ());
  Machine.cpu ~kernel:false t.compute;
  Machine.cpu ~kernel:true Costs.write_syscall;
  Stack.send t.stack job.conn
    (Http.response ~now:(Machine.now (machine t)) job.meta ~body_bytes:response_bytes);
  Machine.cpu ~kernel:true Costs.close_syscall;
  Stack.close t.stack job.conn;
  (match job.container with Some c -> Container.release c | None -> ());
  t.active <- t.active - 1;
  t.completed <- t.completed + 1

let pool_worker t wq () =
  let rec loop () =
    match Queue.take_opt t.jobs with
    | Some job ->
        run_job t job;
        (* Return to the worker's own principal between jobs. *)
        loop ()
    | None ->
        Machine.Waitq.wait wq;
        loop ()
  in
  loop ()

let ensure_pool t size =
  if not t.pool_started then begin
    t.pool_started <- true;
    let wq = Machine.Waitq.create ~name:"fastcgi" (machine t) in
    t.pool_wq <- Some wq;
    for i = 1 to size do
      let proc, _thread =
        Process.fork t.server_process ~name:(Printf.sprintf "fcgi-%d" i) (pool_worker t wq)
      in
      track_principal t (Process.default_container proc);
      t.spawned <- t.spawned + 1
    done
  end

let create ~stack ~server_process ?cgi_parent ?(compute = Costs.cgi_compute_default)
    ?(mode = Fork_per_request) () =
  {
    stack;
    server_process;
    cgi_parent;
    compute;
    mode;
    active = 0;
    completed = 0;
    spawned = 0;
    jobs = Queue.create ();
    pool_wq = None;
    pool_started = false;
    principals = [];
  }

(* Runs on the server thread: dispatch cost there, then hand off. *)
let handler t conn meta =
  Machine.cpu ~kernel:true Costs.cgi_dispatch;
  let container =
    match t.cgi_parent with
    | None -> None
    | Some parent ->
        Machine.cpu ~kernel:true Ops.Cost.create;
        let c =
          Container.create ~parent
            ~name:(Printf.sprintf "cgi-req-%d" conn.Socket.conn_id)
            ~attrs:(Attrs.timeshare ()) ()
        in
        (* Passing the container to the CGI process (paper §4.8). *)
        Machine.cpu ~kernel:true Ops.Cost.move_between_processes;
        track_principal t c;
        Some c
  in
  let job = { conn; meta; container } in
  t.active <- t.active + 1;
  match t.mode with
  | Fork_per_request ->
      Machine.cpu ~kernel:true Costs.fork;
      t.spawned <- t.spawned + 1;
      let proc, _thread =
        Process.fork t.server_process
          ~name:(Printf.sprintf "cgi-%d" conn.Socket.conn_id)
          (fun () -> run_job t job)
      in
      track_principal t (Process.default_container proc)
  | Persistent_pool size ->
      ensure_pool t size;
      Queue.push job t.jobs;
      (match t.pool_wq with Some wq -> Machine.Waitq.signal wq | None -> ())

(* Total CPU charged to CGI work so far: per-request containers (RC) plus
   the CGI processes' own principals (classic systems). *)
let cpu_charged t =
  List.fold_left
    (fun acc c -> Engine.Simtime.span_add acc (Rescont.Usage.cpu_total (Container.usage c)))
    Engine.Simtime.span_zero t.principals

let active t = t.active
let completed t = t.completed
let processes_spawned t = t.spawned
