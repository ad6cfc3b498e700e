(* Free-list pool of deferred-protocol-work items, plus the intrusive
   per-container queues they wait on.

   The packet path used to allocate a fresh [W_syn]/[W_data] constructor
   (and, for LRP/RC, a [Queue.t] cons cell) per packet.  Here a work item
   is one mutable record reused for the life of the stack: acquire fills
   the fields, the intrusive [next] link threads it through a container's
   queue with no cells, and release returns it to the free list with its
   reference fields reset to pool-owned dummies (so a parked item never
   pins a dead connection or payload).  Steady-state packet processing
   therefore allocates near zero — the pool only grows when the in-flight
   population exceeds every previous peak.

   Items carry an explicit lifecycle state (free / in service / queued),
   and every transition checks it: double release, releasing a queued
   item, or a corrupted free list raise immediately rather than silently
   sharing one record between two packets.  The counters maintained here
   ([stats]) feed the [net.pool-consistency] invariant law:

     free + in_service + queued = allocated                (always)

   which the fuzzer arms, so a leak or double-free cannot survive a
   scenario unnoticed. *)

type kind = Syn | Ack | Data | Fin

type item = {
  mutable kind : kind;
  mutable src : Ipaddr.t; (* Syn *)
  mutable src_port : int; (* Syn *)
  mutable listen : Socket.listen option; (* Syn: early-demux result *)
  mutable client : Socket.client_handlers; (* Syn *)
  mutable completes : bool; (* Syn: a real client will ACK *)
  mutable conn : Socket.conn; (* Ack / Data / Fin; pool dummy otherwise *)
  mutable payload : Payload.t; (* Data; pool dummy otherwise *)
  mutable lifecycle : int; (* 0 free, 1 in service, 2 queued *)
  mutable next : item; (* free-list / queue link; [nil] terminated *)
}

type t = {
  nil : item; (* per-pool sentinel: end of every chain *)
  dummy_conn : Socket.conn;
  dummy_payload : Payload.t;
  mutable free_head : item;
  mutable allocated : int;
  mutable free : int;
  mutable in_service : int;
  mutable queued : int;
}

type queue = {
  pool : t;
  mutable head : item; (* pool.nil when empty *)
  mutable tail : item;
  mutable count : int;
}

let lifecycle_free = 0
let lifecycle_in_service = 1
let lifecycle_queued = 2

let create () =
  let dummy_conn = Socket.placeholder_conn () in
  let dummy_payload = Payload.make ~bytes:0 Engine.Simtime.zero in
  let rec nil =
    {
      kind = Syn;
      src = Ipaddr.v 0 0 0 0;
      src_port = 0;
      listen = None;
      client = Socket.null_handlers;
      completes = false;
      conn = dummy_conn;
      payload = dummy_payload;
      lifecycle = -1;
      next = nil;
    }
  in
  {
    nil;
    dummy_conn;
    dummy_payload;
    free_head = nil;
    allocated = 0;
    free = 0;
    in_service = 0;
    queued = 0;
  }

let stats t = (t.allocated, t.free, t.in_service, t.queued)

let acquire t =
  if t.free_head == t.nil then begin
    let item =
      {
        kind = Syn;
        src = Ipaddr.v 0 0 0 0;
        src_port = 0;
        listen = None;
        client = Socket.null_handlers;
        completes = false;
        conn = t.dummy_conn;
        payload = t.dummy_payload;
        lifecycle = lifecycle_in_service;
        next = t.nil;
      }
    in
    t.allocated <- t.allocated + 1;
    t.in_service <- t.in_service + 1;
    item
  end
  else begin
    let item = t.free_head in
    if item.lifecycle <> lifecycle_free then
      invalid_arg "Workpool.acquire: free list holds a non-free item";
    t.free_head <- item.next;
    item.next <- t.nil;
    item.lifecycle <- lifecycle_in_service;
    t.free <- t.free - 1;
    t.in_service <- t.in_service + 1;
    item
  end

let release t item =
  if item.lifecycle = lifecycle_free then invalid_arg "Workpool.release: double free";
  if item.lifecycle = lifecycle_queued then
    invalid_arg "Workpool.release: item is still queued";
  item.lifecycle <- lifecycle_free;
  (* Reset reference fields so a parked item retains nothing. *)
  item.listen <- None;
  item.client <- Socket.null_handlers;
  item.conn <- t.dummy_conn;
  item.payload <- t.dummy_payload;
  item.next <- t.free_head;
  t.free_head <- item;
  t.free <- t.free + 1;
  t.in_service <- t.in_service - 1

(* {2 Intrusive queues} *)

let queue_create pool = { pool; head = pool.nil; tail = pool.nil; count = 0 }
let queue_length q = q.count
let queue_is_empty q = q.count = 0

let push q item =
  if item.lifecycle <> lifecycle_in_service then
    invalid_arg "Workpool.push: item is not in service";
  item.lifecycle <- lifecycle_queued;
  item.next <- q.pool.nil;
  if q.head == q.pool.nil then q.head <- item else q.tail.next <- item;
  q.tail <- item;
  q.count <- q.count + 1;
  q.pool.in_service <- q.pool.in_service - 1;
  q.pool.queued <- q.pool.queued + 1

let pop q =
  if q.head == q.pool.nil then None
  else begin
    let item = q.head in
    q.head <- item.next;
    if q.head == q.pool.nil then q.tail <- q.pool.nil;
    item.next <- q.pool.nil;
    item.lifecycle <- lifecycle_in_service;
    q.count <- q.count - 1;
    q.pool.queued <- q.pool.queued - 1;
    q.pool.in_service <- q.pool.in_service + 1;
    Some item
  end

(* Structural audit used by the pool-consistency law: the linked length
   of each queue must match its counter, and every linked item must be in
   the queued lifecycle state. *)
let queue_validate q =
  let rec walk item n =
    if item == q.pool.nil then n = q.count
    else item.lifecycle = lifecycle_queued && walk item.next (n + 1)
  in
  walk q.head 0
