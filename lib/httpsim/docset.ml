(* Process-global document-id interning.

   Ids must be global, not domain-local: under sharded cluster execution a
   cache is populated on the main domain while requests are parsed on shard
   domains, so per-domain id assignment would silently map lookups to the
   wrong documents.  Interning takes a mutex (it is off the hot path — the
   request path carries the already-interned int), while [path_of] reads an
   atomically published snapshot of the byte storage so hot readers never
   lock.

   Ids travel between domains only through synchronized hand-offs (shard
   barriers, domain spawns), which order the publishing writes before the
   reads.  Because interning order can differ between runs when domains
   race to intern, ids must never influence observable simulation order;
   per-cache state is therefore kept in dense per-cache slots
   (see {!File_cache}), never ordered by global id.

   Storage is flat (see docset.mli), so a million paths are a handful
   of heap blocks, not two per path.  [table] is guarded by [mutex]; its
   slots pack a path's [Hashtbl.hash] above its id, so growth rehashes
   without re-reading a path.  [store] holds the bytes and the offsets.

   Publication keeps [path_of] lock-free.  A writer appends past the
   published ids only, so published bytes and offsets are never
   rewritten.  When either array is full it copies both and publishes
   the copy through [store] before writing the new path; [count] moves
   last.  A reader loads [count] before [store], so any store it sees
   holds every id below the count it saw. *)

let initial_ids = 1024
let initial_bytes = 16 * initial_ids
let empty = -1
let id_bits = 32
let id_mask = (1 lsl id_bits) - 1

type store = { bytes : Bytes.t; offsets : int array (* length = id capacity + 1 *) }

let mutex = Mutex.create ()
let table = ref (Array.make (2 * initial_ids) empty) (* guarded by [mutex] *)

let store =
  Atomic.make { bytes = Bytes.create initial_bytes; offsets = Array.make (initial_ids + 1) 0 }

let count = Atomic.make 0

(* The probe and the byte comparison are top-level functions, not
   closures over the table, so a lookup allocates nothing. *)
let rec same_bytes path bytes off i n =
  i = n
  || Char.equal (String.unsafe_get path i) (Bytes.unsafe_get bytes (off + i))
     && same_bytes path bytes off (i + 1) n

let stored_is path { bytes; offsets } id =
  let off = offsets.(id) in
  let n = String.length path in
  offsets.(id + 1) - off = n && same_bytes path bytes off 0 n

(* [path]'s id, or [-1 - slot] for the empty slot where it would go. *)
let rec probe tbl mask h path st slot =
  let w = Array.unsafe_get tbl slot in
  if w = empty then -1 - slot
  else if w lsr id_bits = h && stored_is path st (w land id_mask) then w land id_mask
  else probe tbl mask h path st ((slot + 1) land mask)

let rec place tbl mask w slot =
  if tbl.(slot) = empty then tbl.(slot) <- w else place tbl mask w ((slot + 1) land mask)

let grow tbl =
  let bigger = Array.make (2 * Array.length tbl) empty in
  let mask = Array.length bigger - 1 in
  Array.iter (fun w -> if w <> empty then place bigger mask w ((w lsr id_bits) land mask)) tbl;
  bigger

let grown cur need = if need <= cur then cur else max (2 * cur) need

(* Store [path] as id [id]'s bytes, first copying and publishing the
   buffer and the offsets if either is full. *)
let append id path =
  let st = Atomic.get store in
  let off = st.offsets.(id) and n = String.length path in
  let st =
    if off + n <= Bytes.length st.bytes && id + 2 <= Array.length st.offsets then st
    else begin
      let bytes = Bytes.create (grown (Bytes.length st.bytes) (off + n)) in
      Bytes.blit st.bytes 0 bytes 0 off;
      let offsets = Array.make (grown (Array.length st.offsets) (id + 2)) 0 in
      Array.blit st.offsets 0 offsets 0 (id + 1);
      let st = { bytes; offsets } in
      Atomic.set store st;
      st
    end
  in
  Bytes.blit_string path 0 st.bytes off n;
  st.offsets.(id + 1) <- off + n

(* [probe] from [path]'s home slot; call with [mutex] held. *)
let lookup h path =
  let tbl = !table in
  let mask = Array.length tbl - 1 in
  probe tbl mask h path (Atomic.get store) (h land mask)

let intern path =
  let h = Hashtbl.hash path in
  Mutex.lock mutex;
  let found = lookup h path in
  let id =
    if found >= 0 then found
    else begin
      let id = Atomic.get count in
      append id path;
      let tbl = !table in
      tbl.(-1 - found) <- (h lsl id_bits) lor id;
      if 2 * (id + 1) > Array.length tbl then table := grow tbl;
      Atomic.set count (id + 1);
      id
    end
  in
  Mutex.unlock mutex;
  id

let find_id path =
  let h = Hashtbl.hash path in
  Mutex.lock mutex;
  let found = lookup h path in
  Mutex.unlock mutex;
  if found >= 0 then found else -1

let size () = Atomic.get count

let path_of id =
  if id < 0 || id >= Atomic.get count then
    invalid_arg (Printf.sprintf "Docset.path_of: unknown doc id %d" id);
  let { bytes; offsets } = Atomic.get store in
  let off = offsets.(id) in
  Bytes.sub_string bytes off (offsets.(id + 1) - off)
