(* A swap-remove set: the tracked connections fill [conns.(0 .. live-1)]
   and each one's [track_slot] is its index there.  Removing a
   connection moves the last one into its slot, so the live prefix stays
   dense and a walk over it touches only open connections. *)

type t = {
  mutable conns : Socket.conn array; (* [dummy] past [live] *)
  mutable live : int;
  dummy : Socket.conn;
}

let create () =
  (* The dummy connection is never exposed; it only keeps vacant slots
     from pinning real payloads. *)
  let dummy = Socket.placeholder_conn () in
  { conns = Array.make 64 dummy; live = 0; dummy }

let length t = t.live

let add t conn =
  if conn.Socket.track_slot >= 0 then invalid_arg "Conn_table.add: connection already tracked";
  let n = t.live in
  if n = Array.length t.conns then begin
    let conns = Array.make (2 * n) t.dummy in
    Array.blit t.conns 0 conns 0 n;
    t.conns <- conns
  end;
  t.conns.(n) <- conn;
  conn.Socket.track_slot <- n;
  t.live <- n + 1

let mem t conn =
  let slot = conn.Socket.track_slot in
  slot >= 0 && slot < t.live && t.conns.(slot) == conn

let remove t conn =
  mem t conn
  && begin
       let slot = conn.Socket.track_slot and last = t.live - 1 in
       let moved = t.conns.(last) in
       t.conns.(slot) <- moved;
       moved.Socket.track_slot <- slot;
       t.conns.(last) <- t.dummy;
       conn.Socket.track_slot <- -1;
       t.live <- last;
       true
     end

let fold t ~init f =
  let acc = ref init in
  for i = 0 to t.live - 1 do
    acc := f !acc t.conns.(i)
  done;
  !acc
