(* Struct-of-arrays connection registry.  The previous representation kept
   one [Socket.conn array] of boxed records; here the per-slot state is
   split into parallel field arrays — the connection pointer, a wrapping
   generation stamp, and a buffered-rx-bytes mirror — so the
   table-wide scans the stack runs (the memory-conservation law, reaps,
   slot-order batch processing) walk flat int arrays instead of chasing a
   record per connection.

   Slots are reused through a free list; the generation stamp is bumped on
   every vacate, and a {!handle} packs (slot, stamp-at-issue) into one int
   so a held handle from before the slot turned over is rejected by
   {!find} instead of resolving to the slot's new occupant.  The stamp is
   28 bits wide: aliasing needs 2^28 (~2.7*10^8) reuses of a single slot,
   unreachable even for cluster runs churning 10^6 connections.  (The
   original 16-bit stamp wrapped at 65536 reuses — reachable churn for one
   hot slot at cluster scale, caught by the staleness regression test.)
   The slot index gets the remaining bits: 2^34 slots on 64-bit, far above
   any real population. *)

type handle = int (* (slot lsl 28) lor stamp *)

let stamp_bits = 28
let stamp_mask = (1 lsl stamp_bits) - 1
let null_handle = -1
let handle_slot h = h lsr stamp_bits
let handle_stamp h = h land stamp_mask

type t = {
  mutable conns : Socket.conn array; (* [dummy] marks a vacant slot *)
  mutable stamps : int array; (* generation stamp, bumped when a slot vacates *)
  mutable rx_bytes : int array; (* buffered rx bytes of the slot's occupant *)
  dummy : Socket.conn;
  mutable free : int array; (* stack of vacant slot indexes *)
  mutable free_top : int;
  mutable live : int;
}

let create ?(capacity = 64) () =
  let capacity = max capacity 1 in
  (* The dummy connection is never exposed; it only keeps vacant slots
     from pinning real payloads. *)
  let dummy = Socket.placeholder_conn () in
  {
    conns = Array.make capacity dummy;
    stamps = Array.make capacity 0;
    rx_bytes = Array.make capacity 0;
    dummy;
    free = Array.init capacity (fun i -> capacity - 1 - i);
    free_top = capacity;
    live = 0;
  }

let length t = t.live

let grow t =
  let n = Array.length t.conns in
  let conns = Array.make (2 * n) t.dummy in
  Array.blit t.conns 0 conns 0 n;
  t.conns <- conns;
  let stamps = Array.make (2 * n) 0 in
  Array.blit t.stamps 0 stamps 0 n;
  t.stamps <- stamps;
  let rx = Array.make (2 * n) 0 in
  Array.blit t.rx_bytes 0 rx 0 n;
  t.rx_bytes <- rx;
  let free = Array.make (2 * n) 0 in
  Array.blit t.free 0 free 0 t.free_top;
  for i = 0 to n - 1 do
    free.(t.free_top + i) <- (2 * n) - 1 - i
  done;
  t.free <- free;
  t.free_top <- t.free_top + n

let add t conn =
  if conn.Socket.track_slot >= 0 then invalid_arg "Conn_table.add: connection already tracked";
  if t.free_top = 0 then grow t;
  t.free_top <- t.free_top - 1;
  let slot = t.free.(t.free_top) in
  t.conns.(slot) <- conn;
  t.rx_bytes.(slot) <- 0;
  conn.Socket.track_slot <- slot;
  t.live <- t.live + 1

let mem t conn =
  let slot = conn.Socket.track_slot in
  slot >= 0 && slot < Array.length t.conns && t.conns.(slot) == conn

let handle t conn =
  if mem t conn then (conn.Socket.track_slot lsl stamp_bits) lor t.stamps.(conn.Socket.track_slot)
  else null_handle

let find t h =
  if h < 0 then None
  else
    let slot = handle_slot h in
    if slot >= Array.length t.conns then None
    else
      let conn = t.conns.(slot) in
      (* Stamp and occupancy: a handle issued before the slot turned over
         carries the old generation and is rejected here. *)
      if conn != t.dummy && t.stamps.(slot) = handle_stamp h then Some conn else None

(* Vacate a slot: drop the occupant, zero the rx mirror, advance the
   generation (wrapping at 2^28) so outstanding handles go stale. *)
let vacate t slot =
  t.conns.(slot) <- t.dummy;
  t.rx_bytes.(slot) <- 0;
  t.stamps.(slot) <- (t.stamps.(slot) + 1) land stamp_mask;
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1;
  t.live <- t.live - 1

let remove t conn =
  let slot = conn.Socket.track_slot in
  if slot >= 0 && slot < Array.length t.conns && t.conns.(slot) == conn then begin
    conn.Socket.track_slot <- -1;
    vacate t slot;
    true
  end
  else false

let rx_add t conn delta =
  let slot = conn.Socket.track_slot in
  if slot >= 0 && slot < Array.length t.conns && t.conns.(slot) == conn then
    t.rx_bytes.(slot) <- t.rx_bytes.(slot) + delta

let rx_of t conn =
  let slot = conn.Socket.track_slot in
  if slot >= 0 && slot < Array.length t.conns && t.conns.(slot) == conn then t.rx_bytes.(slot)
  else 0

let rx_total t =
  let rx = t.rx_bytes in
  let acc = ref 0 in
  for i = 0 to Array.length rx - 1 do
    acc := !acc + Array.unsafe_get rx i
  done;
  !acc

let iter t f =
  let conns = t.conns in
  for i = 0 to Array.length conns - 1 do
    let c = conns.(i) in
    if c != t.dummy then f c
  done

let fold t ~init f =
  let acc = ref init in
  iter t (fun c -> acc := f !acc c);
  !acc

let reap_closed t =
  let removed = ref 0 in
  let conns = t.conns in
  for i = 0 to Array.length conns - 1 do
    let c = conns.(i) in
    if c != t.dummy && c.Socket.state = Socket.Closed then begin
      c.Socket.track_slot <- -1;
      vacate t i;
      incr removed
    end
  done;
  !removed

let generation_bits = stamp_bits
