module Simtime = Engine.Simtime
module Sim = Engine.Sim
module Machine = Procsim.Machine
module Container = Rescont.Container
module Usage = Rescont.Usage
module Attrs = Rescont.Attrs
module Order = Rescont.Service_order

type mode = Softirq | Lrp | Rc

type costs = {
  irq_per_packet : Simtime.span;
  demux : Simtime.span;
  syn_process : Simtime.span;
  ack_process : Simtime.span;
  data_rx_process : Simtime.span;
  fin_process : Simtime.span;
  tx_per_packet : Simtime.span;
  conn_teardown : Simtime.span;
}

let default_costs =
  {
    irq_per_packet = Simtime.ns 2_500;
    demux = Simtime.ns 1_400;
    syn_process = Simtime.us 95;
    ack_process = Simtime.us 15;
    data_rx_process = Simtime.us 20;
    fin_process = Simtime.us 15;
    tx_per_packet = Simtime.us 25;
    conn_teardown = Simtime.us 30;
  }

type stats = {
  mutable syns_received : int;
  mutable syn_queue_drops : int;
  mutable accept_queue_drops : int;
  mutable rx_queue_drops : int;
  mutable packets_processed : int;
  mutable conns_established : int;
  mutable conns_closed : int;
  mutable refused : int;
}

type softirq_charge = Charge_current | Charge_system

(* A unit of (possibly deferred) protocol work is a pooled mutable record
   ({!Workpool.item}) rather than a fresh variant per packet: the listen
   socket for a SYN is resolved by the early demultiplexer at arrival
   time and stamped on the item. *)

type t = {
  machine : Machine.t;
  mode : mode;
  costs : costs;
  mtu : int;
  queue_cap : int;
  syn_timeout : Simtime.span;
  softirq_charge : softirq_charge;
  owner : Container.t;
  demux : Demux.t; (* the installed listen sockets, by port *)
  mutable on_event : unit -> unit;
  mutable on_readable : Socket.conn -> unit;
  mutable on_syn_drop : Socket.listen -> Ipaddr.t -> unit;
  pool : Workpool.t;
  order : Workpool.queue Order.t; (* deferred-processing queues, one per container *)
  mutable pending : int;
  mutable services : service list; (* specific first, catch-all last *)
  conns : Conn_table.t; (* every non-closed connection this stack created *)
  ncpus : int; (* Machine.cpus, cached: the RSS hash fans flows over these *)
  irq_cost : Simtime.span; (* irq_per_packet + demux, precomputed *)
  system_charge : [ `Container of Container.t | `Current_or_system ];
  softirq_charge_v : [ `Container of Container.t | `Current_or_system ];
  stats : stats;
}

(* One per-process network kernel thread (paper §5.1): it services the
   deferred-processing queues of the containers it covers, in container
   priority order, binding itself to each packet's container. *)
and service = {
  svc_name : string;
  svc_covers : Container.t -> bool;
  svc_rank : Container.t -> int; (* [net_rank] of the covered containers *)
  svc_rank_regular : Container.t -> int; (* the same, idle class excluded *)
  svc_wq : Machine.Waitq.t;
  svc_home : Container.t;
  svc_cpu : int; (* processor the kthread is pinned to; -1 = unpinned *)
  mutable svc_busy : bool;
  mutable svc_thread : Machine.thread option;
}

let machine t = t.machine
let mode t = t.mode
let stats t = t.stats
let costs t = t.costs
(* Listeners chain: several server applications may share one stack (e.g.
   virtual hosting), and each adds its own wakeup. *)
let add_on_event t f =
  let previous = t.on_event in
  t.on_event <-
    (fun () ->
      previous ();
      f ())

let set_on_readable t f = t.on_readable <- f
let set_on_syn_drop t f = t.on_syn_drop <- f
let pending_work t = t.pending
let queue_table_size t = Order.length t.order
let tracked_conns t = Conn_table.length t.conns
let pool_stats t = Workpool.stats t.pool

(* The access link: one-way propagation latency, and the paper's
   100 Mbps Fast Ethernet in bytes per nanosecond. *)
let latency = Simtime.us 150
let link_bytes_per_ns = 100. *. 1e6 /. 8. /. 1e9

(* Wire time of a payload on the access link: propagation plus
   serialisation at the link rate (a 4 MB response takes ~1/3 s however
   fast the CPU). *)
let delivery_delay payload =
  let transfer_ns =
    int_of_float (Float.round (float_of_int payload.Payload.bytes /. link_bytes_per_ns))
  in
  Simtime.span_add latency (Simtime.span_of_ns transfer_ns)

(* Schedule a client-bound event no earlier than everything already sent
   on this connection: per-connection FIFO, like TCP. *)
let schedule_to_client t conn delay f =
  let current = Machine.now t.machine in
  let target = Simtime.max (Simtime.add current delay) conn.Socket.last_delivery in
  conn.Socket.last_delivery <- target;
  Sim.post_at (Machine.sim t.machine) target f
let listens t = Demux.fold t.demux ~init:[] (fun acc l -> l :: acc)
let now t = Machine.now t.machine

let tracing t = Engine.Tracelog.enabled (Machine.trace t.machine)
let tell t ev = Engine.Tracelog.event (Machine.trace t.machine) (now t) ev

let add_listen t l =
  if not (l.Socket.listen_run == Container.run (Machine.root t.machine)) then
    invalid_arg "Stack.add_listen: the socket was made in another run";
  Demux.add t.demux l

let remove_listen t l = Demux.remove t.demux l

let demux_lookup t ~port ~src = Demux.lookup t.demux ~port ~src

let cost_of_work t (w : Workpool.item) =
  match w.kind with
  | Workpool.Syn -> t.costs.syn_process
  | Workpool.Ack -> t.costs.ack_process
  | Workpool.Data ->
      Simtime.span_scale
        (float_of_int (Payload.packet_count ~mtu:t.mtu w.payload))
        t.costs.data_rx_process
  | Workpool.Fin -> t.costs.fin_process

let container_of_work t (w : Workpool.item) =
  match t.mode with
  | Lrp | Softirq ->
      (* LRP charges the receiving process; connection-level containers are
         an RC-only concept. *)
      t.owner
  | Rc -> (
      match w.kind with
      | Workpool.Syn -> (
          match w.listen with
          | Some l -> (
              match l.Socket.listen_container with Some c -> c | None -> t.owner)
          | None -> t.owner)
      | Workpool.Ack | Workpool.Data | Workpool.Fin ->
          Socket.conn_container_or w.conn ~default:t.owner)

let is_idle_class container = Attrs.is_idle_class (Container.attrs container)

(* Flow identity hash: a cheap avalanche mix of (source address, source
   port).  The multiplies overflow into the sign bit for src_port >= 23,
   so the mask to non-negative must be the LAST step — the original code
   masked mid-pipeline, which kept [rss_steer]'s final [mod] in range only
   by accident and handed any other consumer (the balancer's consistent
   hashing, which reduces the hash mod a ring size) a possibly negative
   value.  Masking last makes the result non-negative by construction, for
   every consumer. *)
let flow_hash src src_port =
  let h = Ipaddr.hash src lxor ((src_port + 1) * 0x9E3779B1) in
  let h = h lxor (h lsr 16) in
  let h = h * 0x45D9F3B in
  let h = h lxor (h lsr 13) in
  h land max_int

(* RSS-style receive-side steering: hash the flow to a processor, so every
   packet of a connection takes its interrupt — and its charge — on the
   same CPU.  Always 0 on a uniprocessor. *)
let rss_steer t src src_port = if t.ncpus <= 1 then 0 else flow_hash src src_port mod t.ncpus

(* Where a unit of protocol work takes its interrupt: SYNs hash the flow,
   everything else follows the steering stamped on its connection. *)
let steer_of_work t (w : Workpool.item) =
  match w.kind with
  | Workpool.Syn -> rss_steer t w.src w.src_port
  | Workpool.Ack | Workpool.Data | Workpool.Fin -> w.conn.Socket.steer_cpu

(* The principal that owns a connection's buffered bytes.  Resolved once
   and stamped on the connection: charge and refund must hit the same
   container even if the connection is rebound in between
   ([Socket.bind_container] moves the stamped charge with the binding). *)
let rx_memory_container t conn =
  match conn.Socket.rx_mem_owner with
  | Some owner -> owner
  | None ->
      let owner =
        match t.mode with
        | Lrp | Softirq -> t.owner
        | Rc -> Socket.conn_container_or conn ~default:t.owner
      in
      conn.Socket.rx_mem_owner <- Some owner;
      owner

(* Memory-limit enforcement (the [memory_limit] attribute, §4.1): buffered
   socket memory held anywhere on the container's parent chain must stay
   under the tightest limit, or the incoming data is discarded — back-
   pressure by early drop, like the per-container packet queues. *)
let memory_limit_exceeded container ~extra =
  let rec check node =
    (match (Container.attrs node).Attrs.memory_limit with
    | Some limit -> Usage.memory_bytes (Container.subtree_usage node) + extra > limit
    | None -> false)
    || match Container.parent node with Some p -> check p | None -> false
  in
  check container

let schedule t delay f = Sim.post (Machine.sim t.machine) delay f
let queued_in acc e = acc + Workpool.queue_length (Order.fifo e)

(* A connection leaves the registry the instant it closes, from whichever
   path closed it, so the registry holds exactly the open connections
   and the memory-conservation law's walk is proportional to live
   traffic with no pruning pass at all. *)
let mark_closed t conn =
  conn.Socket.state <- Socket.Closed;
  ignore (Conn_table.remove t.conns conn)

(* Lazily purge SYN-queue entries that completed, died, or timed out.  A
   timed-out half-open connection is a drop like any other: it counts
   against the listener and the stack, and fires the drop callback, so SYN
   flood damage is visible whether entries die by eviction or by timeout. *)
let purge_syn_queue t l =
  let rec purge () =
    match Queue.peek_opt l.Socket.syn_queue with
    | Some conn when conn.Socket.state <> Socket.Syn_rcvd ->
        ignore (Queue.pop l.Socket.syn_queue);
        purge ()
    | Some conn
      when Simtime.span_compare (Simtime.diff (now t) conn.Socket.syn_arrival) t.syn_timeout > 0
      ->
        ignore (Queue.pop l.Socket.syn_queue);
        mark_closed t conn;
        l.Socket.syn_drops <- l.Socket.syn_drops + 1;
        t.stats.syn_queue_drops <- t.stats.syn_queue_drops + 1;
        if tracing t then
          tell t
            (Engine.Trace_event.Syn_drop
               {
                 listen = l.Socket.listen_id;
                 src = Ipaddr.to_string conn.Socket.src;
                 reason = Engine.Trace_event.Timeout;
               });
        t.on_syn_drop l conn.Socket.src;
        purge ()
    | Some _ | None -> ()
  in
  purge ()

(* Evict the oldest half-open connection to make room (drop-oldest). *)
let evict_syn t l =
  let rec evict () =
    if Queue.length l.Socket.syn_queue >= l.Socket.syn_backlog then begin
      match Queue.take_opt l.Socket.syn_queue with
      | None -> ()
      | Some victim ->
          if victim.Socket.state = Socket.Syn_rcvd then begin
            mark_closed t victim;
            l.Socket.syn_drops <- l.Socket.syn_drops + 1;
            t.stats.syn_queue_drops <- t.stats.syn_queue_drops + 1;
            if tracing t then
              tell t
                (Engine.Trace_event.Syn_drop
                   {
                     listen = l.Socket.listen_id;
                     src = Ipaddr.to_string victim.Socket.src;
                     reason = Engine.Trace_event.Overflow;
                   });
            t.on_syn_drop l victim.Socket.src
          end;
          evict ()
    end
  in
  evict ()

let track_conn t conn = Conn_table.add t.conns conn

let sum_conn_rx acc conn =
  Queue.fold (fun a p -> a + p.Payload.bytes) acc conn.Socket.rx_queue

(* The bytes buffered in every open connection's rx queue. *)
let buffered_rx_bytes t = Conn_table.fold t.conns ~init:0 sum_conn_rx

(* Container teardown (§4.6): drop the container's deferred-processing
   queue, or the service order grows forever under per-connection
   container churn.  Work still queued for the dead principal is discarded
   like an early drop — no further CPU will be spent on it. *)
let forget_container t e =
  let q = Order.fifo e in
  let dropped = Workpool.queue_length q in
  if dropped > 0 then begin
    t.pending <- t.pending - dropped;
    t.stats.rx_queue_drops <- t.stats.rx_queue_drops + dropped
  end;
  let rec drain () =
    match Workpool.pop q with
    | Some item ->
        Workpool.release t.pool item;
        drain ()
    | None -> ()
  in
  drain ();
  Order.remove t.order e

(* A container's rank in the service order (§4.3): its network priority
   if [covers] admits it, [min_int] (never picked) otherwise. *)
let net_rank ~covers ~allow_idle c =
  if covers c && (allow_idle || not (is_idle_class c)) then
    Attrs.effective_net_priority (Container.attrs c)
  else min_int

(* Pop the entry's next packet, stamping the entry served: the kthread's
   one dequeue path, for a pick's first packet and for the drain after. *)
let take t e =
  let q = Order.fifo e in
  match Workpool.pop q with
  | None -> None
  | Some _ as taken ->
      t.pending <- t.pending - 1;
      Order.popped t.order e ~empty:(Workpool.queue_is_empty q);
      if tracing t then begin
        let container = Order.container e in
        tell t
          (Engine.Trace_event.Net_dequeue
             {
               cid = Container.id container;
               container = Container.name container;
               depth = Workpool.queue_length q;
             })
      end;
      taken

let best_pending t svc ~allow_idle =
  Order.best t.order (if allow_idle then svc.svc_rank else svc.svc_rank_regular)

let charge_rx container packets bytes = Container.charge_rx container ~packets ~bytes

(* The protocol action itself; its CPU cost has already been consumed by
   the caller (softirq steal or network kernel thread).  Callers release
   the item back to the pool afterwards; closures scheduled from here
   capture extracted fields, never the pooled item itself. *)
let rec perform t (w : Workpool.item) =
  t.stats.packets_processed <- t.stats.packets_processed + 1;
  match w.kind with
  | Workpool.Syn -> (
      match w.listen with
      | None ->
          t.stats.refused <- t.stats.refused + 1;
          let client = w.client in
          schedule t latency (fun () -> client.Socket.on_refused ())
      | Some l ->
          if tracing t then
            tell t
              (Engine.Trace_event.Net_syn
                 { src = Ipaddr.to_string w.src; listen = l.Socket.listen_id });
          purge_syn_queue t l;
          evict_syn t l;
          let conn =
            Socket.make_conn
              ~id:(Container.fresh_id (Container.run (Machine.root t.machine)) Conn_ids)
              ~src:w.src ~src_port:w.src_port ~client:w.client ~now:(now t)
          in
          conn.Socket.steer_cpu <- rss_steer t w.src w.src_port;
          track_conn t conn;
          conn.Socket.listen <- Some l;
          Queue.push conn l.Socket.syn_queue;
          charge_rx (container_of_work t w) 1 40;
          (* SYN|ACK goes out; a real client ACKs one round trip later. *)
          if w.completes then
            schedule t (Simtime.span_add latency latency) (fun () -> ack_arrival t conn))
  | Workpool.Ack ->
      let conn = w.conn in
      charge_rx (container_of_work t w) 1 40;
      if conn.Socket.state = Socket.Syn_rcvd then begin
        match conn.Socket.listen with
        | None -> mark_closed t conn
        | Some l ->
            if Queue.length l.Socket.accept_queue >= l.Socket.backlog then begin
              (* Dropped silently, as 1990s BSD-derived stacks did: the
                 client finds out via its retransmission timer. *)
              mark_closed t conn;
              l.Socket.accept_drops <- l.Socket.accept_drops + 1;
              t.stats.accept_queue_drops <- t.stats.accept_queue_drops + 1;
              if tracing t then
                tell t
                  (Engine.Trace_event.Accept_drop
                     { listen = l.Socket.listen_id; conn = conn.Socket.conn_id })
            end
            else begin
              conn.Socket.state <- Socket.Established;
              if tracing t then
                tell t
                  (Engine.Trace_event.Net_established
                     { conn = conn.Socket.conn_id; src = Ipaddr.to_string conn.Socket.src });
              Queue.push conn l.Socket.accept_queue;
              t.stats.conns_established <- t.stats.conns_established + 1;
              t.on_event ();
              schedule t latency (fun () ->
                  conn.Socket.client.Socket.on_established conn)
            end
      end
  | Workpool.Data ->
      let conn = w.conn and payload = w.payload in
      let container = container_of_work t w in
      charge_rx container (Payload.packet_count ~mtu:t.mtu payload) payload.Payload.bytes;
      if conn.Socket.state = Socket.Established then begin
        let owner = rx_memory_container t conn in
        if memory_limit_exceeded owner ~extra:payload.Payload.bytes then begin
          (* Buffer memory exhausted for this principal: drop the data;
             the client's retransmission machinery will retry. *)
          t.stats.rx_queue_drops <- t.stats.rx_queue_drops + 1;
          if tracing t then
            tell t
              (Engine.Trace_event.Rx_discard
                 {
                   cid = Container.id owner;
                   container = Container.name owner;
                   bytes = payload.Payload.bytes;
                 })
        end
        else begin
          (* Buffered data occupies socket-buffer memory until the
             application reads it (§4.4). *)
          Container.charge_memory owner payload.Payload.bytes;
          Queue.push payload conn.Socket.rx_queue;
          t.on_event ();
          (* Edge-triggered readability: fire only on the empty->non-empty
             transition so scan-free servers can keep a duplicate-free
             ready list. *)
          if Queue.length conn.Socket.rx_queue = 1 then t.on_readable conn
        end
      end
  | Workpool.Fin -> (
      let conn = w.conn in
      charge_rx (container_of_work t w) 1 40;
      match conn.Socket.state with
      | Socket.Established ->
          conn.Socket.state <- Socket.Close_wait;
          t.on_event ();
          (* Peer close is a readability event too (EOF), so ready-list
             servers notice half-closed connections without scanning. *)
          if Queue.is_empty conn.Socket.rx_queue then t.on_readable conn
      | Socket.Syn_rcvd | Socket.Close_wait | Socket.Closed -> ())

(* Deferred-processing queues, one per container (RC) or one for the owner
   process (LRP).  Only live containers get one (see [enqueue_work]); it
   leaves with its container. *)
and entry_for t container =
  match Order.find t.order container with
  | e -> e
  | exception Not_found ->
      let e = Order.add t.order container (Workpool.queue_create t.pool) in
      Container.on_destroy container (fun _ -> forget_container t e);
      e

(* The covering service pinned to [steer] when one exists, else the first
   covering service (the uniprocessor case, and explicitly-added virtual
   hosting services, which are unpinned). *)
and service_covering t container ~steer =
  let rec find best = function
    | [] -> best
    | svc :: rest ->
        if not (svc.svc_covers container) then find best rest
        else if svc.svc_cpu = steer then Some svc
        else find (match best with None -> Some svc | some -> some) rest
  in
  find None t.services

and enqueue_work t (work : Workpool.item) =
  let container = container_of_work t work in
  if Container.is_destroyed container then begin
    (* The principal died between demux and enqueue: discard like any
       early drop — an untracked queue would strand the pending count. *)
    t.stats.rx_queue_drops <- t.stats.rx_queue_drops + 1;
    Workpool.release t.pool work
  end
  else
    let e = entry_for t container in
    let q = Order.fifo e in
    if Workpool.queue_length q >= t.queue_cap then begin
      (* Early discard at interrupt level: the whole point of LRP/RC under
         overload — no further CPU is spent on this packet. *)
      if tracing t then
        tell t
          (Engine.Trace_event.Early_discard
             {
               cid = Container.id container;
               container = Container.name container;
               depth = Workpool.queue_length q;
             });
      t.stats.rx_queue_drops <- t.stats.rx_queue_drops + 1;
      Workpool.release t.pool work
    end
    else begin
      Workpool.push q work;
      Order.pushed t.order e;
      t.pending <- t.pending + 1;
      if tracing t then
        tell t
          (Engine.Trace_event.Net_enqueue
             {
               cid = Container.id container;
               container = Container.name container;
               depth = Workpool.queue_length q;
             });
      (* Make the covering network kernel thread runnable at the priority of
         its best pending container (paper §4.7) — preferring the kthread
         pinned to the processor this work was steered to. *)
      match service_covering t container ~steer:(steer_of_work t work) with
      | Some svc ->
          if not svc.svc_busy then begin
            (match (svc.svc_thread, best_pending t svc ~allow_idle:true) with
            | Some kthread, Some best when t.mode = Rc ->
                Machine.rebind t.machine kthread (Order.container best)
            | (Some _ | None), (Some _ | None) -> ());
            Machine.Waitq.signal svc.svc_wq
          end
      | None -> ()
    end

(* Interrupt-level arrival of an already-built work item: charge the IRQ +
   demux cost and either process immediately (softirq) or enqueue. *)
and dispatch t (work : Workpool.item) =
  let cpu = steer_of_work t work in
  match t.mode with
  | Softirq ->
      (* Interrupt + softirq protocol processing, immediately, above all
         threads — on the processor the flow is steered to.  Charged per
         §3.2 either to the unlucky principal running at the time, or
         (default, matching Digital UNIX's behaviour as measured in
         Fig. 13) to no process at all. *)
      Machine.steal_time ~cpu t.machine
        ~cost:(Simtime.span_add t.irq_cost (cost_of_work t work))
        ~charge:t.softirq_charge_v;
      perform t work;
      Workpool.release t.pool work
  | Lrp | Rc ->
      Machine.steal_time ~cpu t.machine ~cost:t.irq_cost ~charge:t.system_charge;
      enqueue_work t work

and ack_arrival t conn =
  let work = Workpool.acquire t.pool in
  work.kind <- Workpool.Ack;
  work.conn <- conn;
  dispatch t work

let syn_arrival t ~src ~src_port ~port ~client ~completes =
  t.stats.syns_received <- t.stats.syns_received + 1;
  let work = Workpool.acquire t.pool in
  work.Workpool.kind <- Workpool.Syn;
  work.Workpool.src <- src;
  work.Workpool.src_port <- src_port;
  work.Workpool.listen <- Demux.lookup t.demux ~port ~src;
  work.Workpool.client <- client;
  work.Workpool.completes <- completes;
  dispatch t work

let data_arrival t conn payload =
  let work = Workpool.acquire t.pool in
  work.Workpool.kind <- Workpool.Data;
  work.Workpool.conn <- conn;
  work.Workpool.payload <- payload;
  dispatch t work

let fin_arrival t conn =
  let work = Workpool.acquire t.pool in
  work.Workpool.kind <- Workpool.Fin;
  work.Workpool.conn <- conn;
  dispatch t work

(* The busy entry the kthread serves next.  Running tasks are dequeued
   from the policy while on a processor, so a positive count means someone
   other than this thread wants the CPU, and idle-class work waits. *)
let pick_work t svc =
  best_pending t svc ~allow_idle:(Machine.runnable_tasks t.machine = 0)

let serve t work =
  Machine.cpu ~kernel:true (cost_of_work t work);
  perform t work;
  Workpool.release t.pool work

(* Once bound to a container, drain its whole queue before moving on:
   hopping containers costs a scheduling turn per packet, and queues are
   bounded so no peer waits more than [queue_cap] packets.  Idle-class
   queues are drained one packet at a time so regular work can reclaim
   the thread between packets.  The entry is held across the drain: if
   its container dies meanwhile, its queue is emptied and the drain ends. *)
let rec drain t e =
  let container = Order.container e in
  if not (is_idle_class container && Machine.runnable_tasks t.machine > 0) then
    match take t e with
    | None -> ()
    | Some work ->
        serve t work;
        if not (is_idle_class container) then drain t e

let kthread_body t svc () =
  let self = Machine.self () in
  let rec loop () =
    match pick_work t svc with
    | Some e -> (
        match take t e with
        | Some work ->
            svc.svc_busy <- true;
            Machine.rebind t.machine self
              (if t.mode = Rc then Order.container e else svc.svc_home);
            serve t work;
            drain t e;
            svc.svc_busy <- false;
            loop ()
        | None -> wait ())
    | None -> wait ()
  and wait () =
    svc.svc_busy <- false;
    Machine.Waitq.wait svc.svc_wq;
    loop ()
  in
  loop ()

let spawn_service ?cpu t ~name ~home ~covers =
  match t.mode with
  | Softirq -> None
  | Lrp | Rc ->
      let svc =
        {
          svc_name = name;
          svc_covers = covers;
          svc_rank = net_rank ~covers ~allow_idle:true;
          svc_rank_regular = net_rank ~covers ~allow_idle:false;
          svc_wq = Machine.Waitq.create t.machine;
          svc_home = home;
          svc_cpu = (match cpu with Some c -> c | None -> -1);
          svc_busy = false;
          svc_thread = None;
        }
      in
      let thread =
        Machine.spawn t.machine ~kernel:true ?cpu ~name ~container:home (kthread_body t svc)
      in
      svc.svc_thread <- Some thread;
      Some svc

let add_service ?cpu t ~name ~home ~covers =
  match spawn_service ?cpu t ~name ~home ~covers with
  | Some svc -> t.services <- svc :: t.services
  | None -> ()

let create ?(mtu = 1460) ?(costs = default_costs) ?(queue_cap = 64)
    ?(syn_timeout = Simtime.sec 75) ?(softirq_charge = Charge_system) ~machine ~mode ~owner () =
  let system = Machine.root machine in
  let t =
    {
      machine;
      mode;
      costs;
      mtu;
      queue_cap;
      syn_timeout;
      softirq_charge;
      owner;
      demux = Demux.create ();
      on_event = (fun () -> ());
      on_readable = (fun _ -> ());
      on_syn_drop = (fun _ _ -> ());
      pool = Workpool.create ();
      order = Order.create ();
      pending = 0;
      services = [];
      conns = Conn_table.create ();
      ncpus = Machine.cpus machine;
      irq_cost = Simtime.span_add costs.irq_per_packet costs.demux;
      system_charge = `Container system;
      softirq_charge_v =
        (match softirq_charge with
        | Charge_current -> `Current_or_system
        | Charge_system -> `Container system);
      stats =
        {
          syns_received = 0;
          syn_queue_drops = 0;
          accept_queue_drops = 0;
          rx_queue_drops = 0;
          packets_processed = 0;
          conns_established = 0;
          conns_closed = 0;
          refused = 0;
        };
    }
  in
  (* Expose the stack's counters as pull gauges over the live stats record:
     exported values agree with the in-process view by construction. *)
  let registry = Machine.metrics machine in
  let s = t.stats in
  let expose name read = Engine.Metrics.gauge registry name (fun () -> float_of_int (read ())) in
  expose "net.syns_received" (fun () -> s.syns_received);
  expose "net.syn_queue_drops" (fun () -> s.syn_queue_drops);
  expose "net.accept_queue_drops" (fun () -> s.accept_queue_drops);
  expose "net.rx_queue_drops" (fun () -> s.rx_queue_drops);
  expose "net.packets_processed" (fun () -> s.packets_processed);
  expose "net.conns_established" (fun () -> s.conns_established);
  expose "net.conns_closed" (fun () -> s.conns_closed);
  expose "net.refused" (fun () -> s.refused);
  expose "net.pending_work" (fun () -> t.pending);
  (* Conservation laws over the stack's queues and socket-buffer memory.
     The memory law assumes one stack per machine — true of every rig here
     (Net attaches each stack to its own machine) — so it is registered
     once per registry. *)
  let module I = Engine.Invariant in
  let inv = Machine.invariants machine in
  if not (List.mem "net.pending-consistency" (I.names inv)) then begin
    I.register inv ~law:"net.pending-consistency" (fun () ->
        let queued = Order.fold t.order ~init:0 queued_in in
        I.equal_int ~what:"queued deferred packets vs stack pending counter" queued t.pending);
    I.register inv ~law:"net.queue-bounds" (fun () ->
        let bounded l kind length bound =
          if length <= bound then Ok ()
          else
            I.leq_int
              ~what:(Printf.sprintf "listen #%d %s queue" l.Socket.listen_id kind)
              length bound
        in
        Demux.fold t.demux ~init:(Ok ()) (fun acc l ->
            match acc with
            | Error _ -> acc
            | Ok () -> (
                match
                  bounded l "syn" (Queue.length l.Socket.syn_queue) l.Socket.syn_backlog
                with
                | Error _ as e -> e
                | Ok () ->
                    bounded l "accept" (Queue.length l.Socket.accept_queue) l.Socket.backlog)));
    I.register inv ~law:"net.memory-conservation" (fun () ->
        (* Socket-buffer memory is charged to the container that owns the
           buffered bytes (§4.4), so the bytes sitting in the open
           connections' rx queues must equal the memory charged into the
           root's subtree. *)
        I.equal_int ~what:"buffered rx bytes vs root-subtree memory_bytes"
          (buffered_rx_bytes t)
          (Rescont.Usage.memory_bytes (Container.subtree_usage (Machine.root machine))));
    (* Pooled work items can never leak or double-free silently: every item
       is on the free list, held by a service thread, or queued for one —
       and each per-container queue's linked length matches its counter. *)
    I.register inv ~law:"net.pool-consistency" (fun () ->
        let allocated, free, in_service, queued = Workpool.stats t.pool in
        match
          I.equal_int ~what:"pooled work items: free + in-service + queued vs allocated"
            (free + in_service + queued) allocated
        with
        | Error _ as e -> e
        | Ok () ->
            let structural = Order.fold t.order ~init:0 queued_in in
            (match
               I.equal_int ~what:"pool queued counter vs per-container queue lengths"
                 queued structural
             with
            | Error _ as e -> e
            | Ok () ->
                let valid ok e = ok && Workpool.queue_validate (Order.fifo e) in
                if Order.fold t.order ~init:true valid then Ok ()
                else Error "a per-container work queue fails structural validation"))
  end;
  (match mode with
  | Softirq -> ()
  | Lrp | Rc ->
      (* One network kernel thread per processor on an SMP machine, each
         pinned to its CPU so steered flows are protocol-processed where
         their interrupts land; the classic single netisr on a
         uniprocessor. *)
      if t.ncpus = 1 then add_service t ~name:"netisr" ~home:owner ~covers:(fun _ -> true)
      else
        for i = t.ncpus - 1 downto 0 do
          add_service ~cpu:i t
            ~name:(Printf.sprintf "netisr%d" i)
            ~home:owner
            ~covers:(fun _ -> true)
        done;
      (* Idle-class protocol processing runs only when the CPU would
         otherwise idle (paper §4.8). *)
      Machine.set_on_idle machine (fun () ->
          List.iter
            (fun svc ->
              if (not svc.svc_busy) && Option.is_some (best_pending t svc ~allow_idle:true) then
                Machine.Waitq.signal svc.svc_wq)
            t.services));
  t

let accept t l =
  let rec pop () =
    match Queue.take_opt l.Socket.accept_queue with
    | None -> None
    | Some conn ->
        if conn.Socket.state = Socket.Closed then pop () else Some conn
  in
  ignore t;
  pop ()

let recv t conn =
  match Queue.take_opt conn.Socket.rx_queue with
  | None -> None
  | Some payload ->
      Container.charge_memory (rx_memory_container t conn) (-payload.Payload.bytes);
      Some payload

let send t conn payload =
  let packets = Payload.packet_count ~mtu:t.mtu payload in
  Machine.cpu ~kernel:true (Simtime.span_scale (float_of_int packets) t.costs.tx_per_packet);
  (match conn.Socket.container with
  | Some c -> Container.charge_tx c ~packets ~bytes:payload.Payload.bytes
  | None -> Container.charge_tx t.owner ~packets ~bytes:payload.Payload.bytes);
  if conn.Socket.state = Socket.Established || conn.Socket.state = Socket.Close_wait then
    schedule_to_client t conn (delivery_delay payload) (fun () ->
        conn.Socket.client.Socket.on_response conn payload)

let close t conn =
  if conn.Socket.state <> Socket.Closed then begin
    Machine.cpu ~kernel:true
      (Simtime.span_add t.costs.fin_process t.costs.conn_teardown);
    mark_closed t conn;
    (* Unread buffered data still occupies socket-buffer memory charged to
       the owning container; tearing the connection down frees the buffers,
       so the charge must be credited back or the principal leaks memory
       accounting with every abandoned connection. *)
    let refunded = ref 0 in
    Queue.iter (fun p -> refunded := !refunded + p.Payload.bytes) conn.Socket.rx_queue;
    Queue.clear conn.Socket.rx_queue;
    if !refunded > 0 then Container.charge_memory (rx_memory_container t conn) (- !refunded);
    t.stats.conns_closed <- t.stats.conns_closed + 1;
    if tracing t then
      tell t
        (Engine.Trace_event.Conn_close
           { conn = conn.Socket.conn_id; refunded_bytes = !refunded });
    schedule_to_client t conn latency (fun () -> conn.Socket.client.Socket.on_closed conn)
  end

let connect t ~src ?(src_port = 0) ~port ~handlers () =
  schedule t latency (fun () ->
      syn_arrival t ~src ~src_port ~port ~client:handlers ~completes:true)

(* External arrival injection for cross-shard dispatch: the balancer
   runs in another shard's event core, models its own wire delay and
   hands the arrival over at a window barrier, so the SYN must hit this
   NIC at a future instant of this machine's sim.  One fire-and-forget
   event per arrival, and no fixed client-side latency. *)
let inject_connect_at t ~at ~src ~src_port ~port ~handlers =
  Sim.post_at (Machine.sim t.machine) at (fun () ->
      syn_arrival t ~src ~src_port ~port ~client:handlers ~completes:true)

(* The SYN segment as charged by the receive path (charge_rx 1 40): what a
   connection attempt costs on the wire, and therefore the term the
   cluster's dispatch lookahead is derived from. *)
let syn_wire_bytes = 40

let syn_delivery_delay = delivery_delay (Payload.make ~bytes:syn_wire_bytes Simtime.zero)

let client_send t conn payload =
  schedule t (delivery_delay payload) (fun () -> data_arrival t conn payload)

let client_close t conn = schedule t latency (fun () -> fin_arrival t conn)

let inject_syn t ~src ~port =
  schedule t Simtime.span_zero (fun () ->
      syn_arrival t ~src ~src_port:0 ~port ~client:Socket.null_handlers ~completes:false)
