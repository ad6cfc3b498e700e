type conn_state = Syn_rcvd | Established | Close_wait | Closed

type conn = {
  conn_id : int;
  src : Ipaddr.t;
  src_port : int;
  mutable state : conn_state;
  mutable container : Rescont.Container.t option;
  mutable rx_mem_owner : Rescont.Container.t option;
  rx_queue : Payload.t Queue.t;
  mutable listen : listen option;
  client : client_handlers;
  mutable syn_arrival : Engine.Simtime.t;
  mutable last_delivery : Engine.Simtime.t;
      (** Client-bound events are FIFO per connection: nothing may overtake
          earlier data on the wire. *)
  mutable track_slot : int;
      (** Slot index in the owning stack's {!Conn_table}; -1 when
          untracked.  Kernel-private. *)
  mutable steer_cpu : int;
      (** Processor this connection's interrupt work is steered to (the
          stack's RSS hash of the flow); 0 on a uniprocessor.
          Kernel-private. *)
}

and listen = {
  listen_id : int;
  listen_run : Rescont.Container.run;
  port : int;
  filter : Filter.t;
  mutable listen_container : Rescont.Container.t option;
  accept_queue : conn Queue.t;
  backlog : int;
  syn_queue : conn Queue.t;
  syn_backlog : int;
  mutable syn_drops : int;
  mutable accept_drops : int;
}

and client_handlers = {
  on_established : conn -> unit;
  on_refused : unit -> unit;
  on_response : conn -> Payload.t -> unit;
  on_closed : conn -> unit;
}

let null_handlers =
  {
    on_established = (fun _ -> ());
    on_refused = (fun () -> ());
    on_response = (fun _ _ -> ());
    on_closed = (fun _ -> ());
  }

(* Ids are drawn when the socket is made, so among equally specific
   filters the demux winner is the socket made first, whatever order the
   sockets are installed in. *)
let listen ?(filter = Filter.any) ?(backlog = 128) ?(syn_backlog = 1024) ~container ~port run =
  if backlog <= 0 || syn_backlog <= 0 then invalid_arg "Socket.make_listen: empty backlog";
  {
    listen_id = Rescont.Container.fresh_id run Rescont.Container.Listen_ids;
    listen_run = run;
    port;
    filter;
    listen_container = container;
    accept_queue = Queue.create ();
    backlog;
    syn_queue = Queue.create ();
    syn_backlog;
    syn_drops = 0;
    accept_drops = 0;
  }

let make_listen ?filter ?backlog ?syn_backlog ~container ~port () =
  listen ?filter ?backlog ?syn_backlog ~container:(Some container) ~port
    (Rescont.Container.run container)

let make_unbound_listen ?filter ?backlog ?syn_backlog ~port run =
  listen ?filter ?backlog ?syn_backlog ~container:None ~port run

let make_conn ~id ~src ~src_port ~client ~now =
  {
    conn_id = id;
    src;
    src_port;
    state = Syn_rcvd;
    container = None;
    rx_mem_owner = None;
    rx_queue = Queue.create ();
    listen = None;
    client;
    syn_arrival = now;
    last_delivery = now;
    track_slot = -1;
    steer_cpu = 0;
  }

let placeholder_conn () =
  make_conn ~id:0 ~src:(Ipaddr.v 0 0 0 0) ~src_port:0 ~client:null_handlers
    ~now:Engine.Simtime.zero

let conn_container_or conn ~default =
  match conn.container with
  | Some c -> c
  | None -> (
      match conn.listen with
      | Some l -> ( match l.listen_container with Some c -> c | None -> default)
      | None -> default)

let bind_container conn container =
  (* Buffered bytes were charged to the connection's previous principal;
     the charge moves with the binding (§4.6 moves resources between
     containers), or the new principal's balance would go negative when
     the application drains data that arrived before the rebind. *)
  (match conn.rx_mem_owner with
  | Some old when Rescont.Container.id old <> Rescont.Container.id container ->
      let buffered = Queue.fold (fun acc p -> acc + p.Payload.bytes) 0 conn.rx_queue in
      if buffered > 0 then begin
        Rescont.Container.charge_memory old (-buffered);
        Rescont.Container.charge_memory container buffered
      end;
      conn.rx_mem_owner <- Some container
  | Some _ | None -> ());
  (match conn.container with
  | Some old -> Rescont.Usage.decr_kernel_objects (Rescont.Container.usage old)
  | None -> ());
  conn.container <- Some container;
  Rescont.Usage.incr_kernel_objects (Rescont.Container.usage container)

let readable conn =
  (not (Queue.is_empty conn.rx_queue)) || conn.state = Close_wait

let accept_ready listen = not (Queue.is_empty listen.accept_queue)
