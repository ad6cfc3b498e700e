(** The simulated TCP/IP subsystem, with three kernel execution models for
    received-packet processing (paper §3.2, §4.7):

    - {b Softirq} — the unmodified kernel: all protocol processing runs at
      interrupt level, strictly above any thread, in FIFO arrival order,
      and is charged to whatever resource principal happens to be running
      ("the unlucky process"), or to the system when idle.  Under overload
      this model exhibits receive livelock.
    - {b Lrp} — Lazy Receiver Processing: the interrupt handler only
      demultiplexes; protocol processing is deferred to a per-process
      kernel thread scheduled at the receiving process's priority and
      charged to the receiving process's container.
    - {b Rc} — the paper's system: like LRP, but the queueing, charging
      and servicing unit is the {e resource container} bound to the socket
      or connection.  Queues are drained in container-priority order;
      idle-class containers (priority 0) are drained only when the CPU
      would otherwise idle; per-container queue overflow discards packets
      at interrupt level for no further cost (early discard).

    The client side of the network (remote machines, switch) is abstract
    and infinitely fast: client behaviour lives in callbacks invoked after
    the one-way latency (150 µs). *)

type mode = Softirq | Lrp | Rc

(** Per-packet/operation kernel CPU costs.  Defaults are calibrated in
    {!Httpsim.Costs} against the paper's §5.3 per-request budgets. *)
type costs = {
  irq_per_packet : Engine.Simtime.span;  (** NIC interrupt handler. *)
  demux : Engine.Simtime.span;  (** Early demultiplex / packet filter. *)
  syn_process : Engine.Simtime.span;
      (** TCP SYN processing including the SYN|ACK transmission. *)
  ack_process : Engine.Simtime.span;  (** Handshake-completing ACK. *)
  data_rx_process : Engine.Simtime.span;  (** Per received data packet. *)
  fin_process : Engine.Simtime.span;
  tx_per_packet : Engine.Simtime.span;  (** Send-path processing per packet. *)
  conn_teardown : Engine.Simtime.span;  (** PCB and buffer release. *)
}

val default_costs : costs

type stats = {
  mutable syns_received : int;
  mutable syn_queue_drops : int;  (** evicted on SYN-queue overflow *)
  mutable accept_queue_drops : int;
  mutable rx_queue_drops : int;  (** early discards at per-container queues *)
  mutable packets_processed : int;
  mutable conns_established : int;
  mutable conns_closed : int;
  mutable refused : int;  (** no matching listen socket *)
}

type t

type softirq_charge =
  | Charge_current
      (** Softirq time is charged to whatever principal is running — "the
          unlucky process" (§3.1). *)
  | Charge_system
      (** Softirq time is charged "to no process at all": it lands on the
          system (root) container and is invisible to the scheduler.  This
          matches the behaviour the paper measured in Fig. 13, where the
          main server got {e more} than its fair share because its kernel
          network processing was not charged to it. *)

val create :
  ?mtu:int ->
  ?costs:costs ->
  ?queue_cap:int ->
  ?syn_timeout:Engine.Simtime.span ->
  ?softirq_charge:softirq_charge ->
  machine:Procsim.Machine.t ->
  mode:mode ->
  owner:Rescont.Container.t ->
  unit ->
  t
(** [owner] is the container charged for deferred protocol processing when
    no more specific container is bound (in [Lrp] mode: always; in [Rc]
    mode: the fallback) — normally the server process's default container.
    [queue_cap] bounds each deferred-processing queue (default 64 packets,
    like a BSD [ipintrq]).  Defaults: MTU 1460, SYN timeout 75 s.
    Messages cross the access link of {!delivery_delay}. *)

val machine : t -> Procsim.Machine.t
val mode : t -> mode
val stats : t -> stats
val costs : t -> costs

val add_on_event : t -> (unit -> unit) -> unit
(** Register a callback invoked whenever a socket becomes readable or
    acceptable; server applications use it to wake their event loops.
    Callbacks chain — several applications may share the stack. *)

val set_on_event : t -> (unit -> unit) -> unit
(** Alias of {!add_on_event} (kept for symmetry with the single-server
    experiments). *)

val set_on_readable : t -> (Socket.conn -> unit) -> unit
(** Register the edge-triggered readability callback: invoked with the
    connection when its rx queue goes from empty to non-empty, and when
    the peer closes an [Established] connection with nothing buffered
    (EOF).  Unlike {!add_on_event} this identifies {i which} connection
    woke up, so a server over 10^5+ connections can keep a ready list
    instead of scanning every tracked connection per wakeup (the
    select-style {!add_on_event} servers are O(connections) per poll).
    One callback per stack; registering replaces the previous one. *)

val set_on_syn_drop : t -> (Socket.listen -> Ipaddr.t -> unit) -> unit
(** The §5.7 kernel modification: notify the application when a SYN is
    dropped due to queue overflow, identifying the source. *)

(** {1 Server-side interface} *)

val add_listen : t -> Socket.listen -> unit
(** Register a listening socket.  Several sockets may share a port with
    different filters (§4.8); incoming SYNs go to the most specific match,
    and among equally specific ones to the lowest listen id (the socket
    made first).  @raise Invalid_argument if the socket was made in a
    run other than that of the stack's machine. *)

val remove_listen : t -> Socket.listen -> unit

val accept : t -> Socket.listen -> Socket.conn option
(** Dequeue an established connection (non-blocking).  The caller is
    responsible for charging the accept system-call cost. *)

val recv : t -> Socket.conn -> Payload.t option
(** Dequeue a received message (non-blocking). *)

val send : t -> Socket.conn -> Payload.t -> unit
(** Transmit a response.  Must be called from a machine thread: the
    send-path kernel cost is consumed by the calling thread (and charged
    to its current resource binding).  Delivery callbacks fire after the
    one-way latency. *)

val close : t -> Socket.conn -> unit
(** Server-initiated close; consumes teardown cost on the calling thread. *)

(** {1 Client-side interface} *)

val connect :
  t -> src:Ipaddr.t -> ?src_port:int -> port:int -> handlers:Socket.client_handlers -> unit -> unit
(** A remote client opens a connection: a SYN arrives after the one-way
    latency, and the handshake completes (or fails) through the normal
    path, invoking the handlers. *)

val client_send : t -> Socket.conn -> Payload.t -> unit
(** The remote client sends a request on an established connection. *)

val client_close : t -> Socket.conn -> unit

val inject_syn : t -> src:Ipaddr.t -> port:int -> unit
(** A bogus SYN (spoofed source, never completes the handshake): the
    SYN-flood attack packet of §5.7.  Arrives immediately. *)

val inject_connect_at :
  t ->
  at:Engine.Simtime.t ->
  src:Ipaddr.t ->
  src_port:int ->
  port:int ->
  handlers:Socket.client_handlers ->
  unit
(** External arrival injection: a genuine connection attempt whose SYN
    hits the NIC at [at], with no client-side latency (the injector
    models its own wire delay).  This is the cross-shard dispatch
    primitive: a balancer running in another shard's event core records
    the arrival in a mailbox during a window and the barrier posts it
    here with [at >= window end], which is what keeps sharded execution
    conservative (no event is ever delivered into a shard's past).  One
    fire-and-forget event per arrival.
    @raise Invalid_argument if [at] is in this machine's past. *)

val syn_delivery_delay : Engine.Simtime.span
(** Wire time of a bare SYN segment (40 bytes, the size the receive path
    charges per connection attempt): one-way latency plus serialisation
    at the link rate.  This is the balancer->machine delivery delay, and
    therefore the lookahead bound the cluster's window protocol derives
    its default window from. *)

val add_service :
  ?cpu:int ->
  t ->
  name:string ->
  home:Rescont.Container.t ->
  covers:(Rescont.Container.t -> bool) ->
  unit
(** Add a per-process network kernel thread (paper §5.1) responsible for
    the deferred protocol processing of every container satisfying
    [covers]; more recently added services take precedence over earlier
    ones, and the stack's built-in catch-all service handles the rest.
    [home] is the thread's fallback container.  [cpu] pins the kthread to
    a processor (the stack's own per-CPU netisr threads use this; steered
    work signals the kthread pinned to its flow's CPU first).  No-op in
    [Softirq] mode. *)

val flow_hash : Ipaddr.t -> int -> int
(** [flow_hash src src_port] is the flow-identity hash shared by RSS
    steering and the cluster balancer's consistent hashing: deterministic,
    avalanche-mixed, and guaranteed non-negative (the sign bit is masked
    as the final step, after the overflowing multiplies — consumers may
    reduce it with [mod] directly). *)

val rss_steer : t -> Ipaddr.t -> int -> int
(** [rss_steer t src src_port] is the processor the flow hashes to:
    [flow_hash src src_port mod cpus] — deterministic, uniform-ish over
    [0, cpus), always 0 on a uniprocessor.  Every packet of a connection
    shares its steering. *)

(** {1 Introspection} *)

val pending_work : t -> int
(** Packets queued for deferred protocol processing (LRP/RC modes). *)

val queue_table_size : t -> int
(** Containers with a deferred-processing queue.  Bounded by the live
    container population: queues are torn down with their container. *)

val stamp_table_size : t -> int
(** Containers with a recorded last-served tick (same lifetime as the
    queue table). *)

val listens : t -> Socket.listen list

val demux_lookup : t -> port:int -> src:Ipaddr.t -> Socket.listen option
(** The production early demultiplexer: first match in the port-indexed,
    specificity-sorted {!Demux} table. *)

val delivery_delay : Payload.t -> Engine.Simtime.span
(** Wire time of a payload on the access link: one-way latency (150 µs)
    plus serialisation at the link rate (100 Mbps).  Every stack has the
    same link.  Exposed so measurement code can recover a message's
    arrival instant from its [created] stamp (the cluster experiments
    compute server-side sojourns this way). *)

val reap : t -> int
(** Remove closed connections from the registry, returning how many were
    removed.  Connections already leave the registry the moment they
    close, so this normally removes nothing — and, unlike the old
    list-rebuild prune, performs no allocation when it doesn't. *)

val tracked_conns : t -> int
(** Non-closed connections currently in the registry. *)

val pool_stats : t -> int * int * int * int
(** [(allocated, free, in_service, queued)] work items in the packet-work
    pool; see {!Workpool.stats}. *)
