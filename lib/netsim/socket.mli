(** Server-side socket objects: listening sockets and connections.

    These are kernel data structures; the driving logic (handshakes, queue
    disciplines, processing modes) lives in {!Stack}.  Records are exposed
    because {!Stack} and the tests manipulate them directly, as kernel code
    would. *)

type conn_state = Syn_rcvd | Established | Close_wait | Closed

type conn = {
  conn_id : int;
      (** Counts from 1 in creation order within the stack's run; 0 for a
          {!placeholder_conn}. *)
  src : Ipaddr.t;
  src_port : int;
  mutable state : conn_state;
  mutable container : Rescont.Container.t option;
      (** The resource container this connection's kernel processing is
          charged to (socket→container binding, §4.6). *)
  mutable rx_mem_owner : Rescont.Container.t option;
      (** The container currently holding the charge for this connection's
          buffered receive bytes.  {!Stack} stamps it at the first charge;
          {!bind_container} moves the outstanding charge when the binding
          changes, so refunds always credit whoever was debited. *)
  rx_queue : Payload.t Queue.t;  (** Messages received, awaiting the application. *)
  mutable listen : listen option;  (** Back-pointer while not yet accepted. *)
  client : client_handlers;
  mutable syn_arrival : Engine.Simtime.t;
  mutable last_delivery : Engine.Simtime.t;
      (** Client-bound events are FIFO per connection: nothing may overtake
          earlier data on the wire ({!Stack} maintains this). *)
  mutable track_slot : int;
      (** Slot index in the owning stack's {!Conn_table}, stamped by the
          table itself; -1 when untracked.  Kernel-private plumbing that
          makes untracking on close O(1). *)
  mutable steer_cpu : int;
      (** Processor this flow's interrupt work is steered to, stamped by
          {!Stack} from its RSS hash when the connection is created; 0 on
          a uniprocessor.  Kernel-private. *)
}

and listen = {
  listen_id : int;  (** Counts from 1 in creation order within the run. *)
  listen_run : Rescont.Container.run;
      (** The run the socket was made in; only a stack of the same run
          installs it. *)
  port : int;
  filter : Filter.t;
  mutable listen_container : Rescont.Container.t option;
  accept_queue : conn Queue.t;
  backlog : int;
  syn_queue : conn Queue.t;
  syn_backlog : int;
  mutable syn_drops : int;
      (** SYNs dropped on queue overflow (the modified kernel notifies the
          application of these, §5.7). *)
  mutable accept_drops : int;
}

and client_handlers = {
  on_established : conn -> unit;
  on_refused : unit -> unit;
  on_response : conn -> Payload.t -> unit;
  on_closed : conn -> unit;
}
(** Callbacks into the (abstract, infinitely fast) client machine; invoked
    after simulated network latency. *)

val null_handlers : client_handlers
(** Handlers that ignore every event — what a spoofed-source SYN-flood
    packet amounts to. *)

val make_listen :
  ?filter:Filter.t ->
  ?backlog:int ->
  ?syn_backlog:int ->
  container:Rescont.Container.t ->
  port:int ->
  unit ->
  listen
(** A listening socket bound to [container] (§4.6, §4.8): its SYN
    processing and, under the servers' inheriting policies, its
    connections are charged there.  It takes the next listen id of the
    container's run.  Defaults: {!Filter.any}, backlog 128, SYN backlog
    1024. *)

val make_unbound_listen :
  ?filter:Filter.t ->
  ?backlog:int ->
  ?syn_backlog:int ->
  port:int ->
  Rescont.Container.run ->
  listen
(** A listening socket bound to no container, with the next listen id of
    the given run: its work is charged to whoever the stack or server
    charges by default.  Defaults as for {!make_listen}. *)

val make_conn :
  id:int ->
  src:Ipaddr.t ->
  src_port:int ->
  client:client_handlers ->
  now:Engine.Simtime.t ->
  conn

val placeholder_conn : unit -> conn
(** A connection no stack tracks, with id 0: filler for vacant slots of
    preallocated tables. *)

val conn_container_or : conn -> default:Rescont.Container.t -> Rescont.Container.t
(** The container charged for this connection: its own binding, else its
    listening socket's, else [default]. *)

val bind_container : conn -> Rescont.Container.t -> unit
(** Bind the connection to a container ("binding a socket to a container",
    §4.6), adjusting kernel-object counts on both sides. *)

val readable : conn -> bool
(** The application has something to pick up: pending messages, or a
    close-notification to consume. *)

val accept_ready : listen -> bool
