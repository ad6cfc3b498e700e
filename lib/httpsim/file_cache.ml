(* Struct-of-arrays document cache with an intrusive LRU list.

   The pre-PR cache was a string-keyed hashtable whose eviction folded the
   whole table per victim — O(n) per miss — and registered documents with a
   quadratic list append.  At the seed's 4 documents that was invisible; a
   Zipf working set of 10^5-10^6 documents lives or dies on it.  Layout
   follows the struct-of-arrays idiom of [Usage] and [Conn_table]: every
   per-document field is a flat int array indexed by a dense per-cache
   slot, and recency is structural — a doubly-linked list threaded
   through [prev]/[next] index arrays (head = MRU, tail = LRU) — so
   lookup, touch, and eviction are all O(1) and allocation-free.

   Residency is one bit per slot in [bits], the only residency marker:
   [load] sets it, [evict_lru] clears it, and [prev]/[next] of a slot whose
   bit is clear are stale and never read.  The bitmap is what lets the
   [cache.bytes-consistency] law run in O(resident) rather than
   O(registered) (see [check_law]).

   Slots are per-cache and dense in registration order; the global
   {!Docset} id is translated on entry via [index].  Nothing may depend on
   global-id order (interning order can vary between runs when parallel
   domains race to intern): warm order and eviction order follow slots,
   which are deterministic per cache.

   [Spec.File_cache_ref] is the executable spec: the historic hashtable
   implementation with clock-stamp LRU, lockstepped in QCheck.  The two
   agree because every stamp the spec writes is unique except for warm
   loads, which the spec stamps as lookups in registration order and this
   cache performs as loads to the list head in that order.  Recency lives
   only in the list here; nothing is stamped. *)

let nil = -1 (* list end *)

(* Residency bits per bitmap word: all of an OCaml int on a 64-bit host. *)
let word_bits = 63
let words slots = (slots + word_bits - 1) / word_bits

type t = {
  capacity : int;
  mutable index : int array; (* global doc id -> slot, [nil] if unregistered *)
  mutable doc : int array; (* slot -> global doc id *)
  mutable size : int array; (* slot -> document bytes *)
  mutable prev : int array; (* resident slot -> more-recent neighbour | nil *)
  mutable next : int array; (* resident slot -> less-recent neighbour | nil *)
  mutable bits : int array; (* residency bitmap: slot s is bit s mod 63 of word s / 63 *)
  mutable head : int; (* most recently used resident slot, or nil *)
  mutable tail : int; (* least recently used resident slot, or nil *)
  mutable used : int; (* registered slots: 0..used-1 are live *)
  mutable resident : int;
  mutable cached_bytes : int;
  hits : Engine.Metrics.counter;
  misses : Engine.Metrics.counter;
}

let create ?(capacity_bytes = 64 * 1024 * 1024) () =
  if capacity_bytes <= 0 then invalid_arg "File_cache.create: capacity must be positive";
  {
    capacity = capacity_bytes;
    index = Array.make 256 nil;
    doc = Array.make 256 nil;
    size = Array.make 256 0;
    prev = Array.make 256 nil;
    next = Array.make 256 nil;
    bits = Array.make (words 256) 0;
    head = nil;
    tail = nil;
    used = 0;
    resident = 0;
    cached_bytes = 0;
    hits = Engine.Metrics.make_counter "cache.hits";
    misses = Engine.Metrics.make_counter "cache.misses";
  }

let register_metrics t registry =
  Engine.Metrics.register_counter registry t.hits;
  Engine.Metrics.register_counter registry t.misses;
  Engine.Metrics.gauge registry "cache.cached_bytes" (fun () -> float_of_int t.cached_bytes)

let[@inline] bit_set bits s =
  (Array.unsafe_get bits (s / word_bits) lsr (s mod word_bits)) land 1 <> 0

let resident t s = bit_set t.bits s

let set_bit t s =
  let w = s / word_bits in
  t.bits.(w) <- t.bits.(w) lor (1 lsl (s mod word_bits))

let clear_bit t s =
  let w = s / word_bits in
  t.bits.(w) <- t.bits.(w) land lnot (1 lsl (s mod word_bits))

(* {2 Intrusive list plumbing}

   [link_front]/[unlink] maintain only the list; [load]/[evict_lru] own the
   residency bit and counters, so a touch (unlink + relink) never churns
   them. *)

let link_front t s =
  t.prev.(s) <- nil;
  t.next.(s) <- t.head;
  if t.head <> nil then t.prev.(t.head) <- s;
  t.head <- s;
  if t.tail = nil then t.tail <- s

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p <> nil then t.next.(p) <- n else t.head <- n;
  if n <> nil then t.prev.(n) <- p else t.tail <- p

let evict_lru t =
  match t.tail with
  | s when s = nil -> false
  | s ->
      unlink t s;
      clear_bit t s;
      t.resident <- t.resident - 1;
      t.cached_bytes <- t.cached_bytes - t.size.(s);
      true

let load t s =
  let bytes = t.size.(s) in
  if bytes <= t.capacity then begin
    while t.cached_bytes + bytes > t.capacity && evict_lru t do
      ()
    done;
    link_front t s;
    set_bit t s;
    t.resident <- t.resident + 1;
    t.cached_bytes <- t.cached_bytes + bytes
  end

(* {2 Registration} *)

let grow_to arr len fill =
  let bigger = Array.make (max len (2 * Array.length arr)) fill in
  Array.blit arr 0 bigger 0 (Array.length arr);
  bigger

let ensure_doc t doc =
  if doc >= Array.length t.index then t.index <- grow_to t.index (doc + 1) nil

let ensure_slot t =
  if t.used >= Array.length t.doc then begin
    let n = 2 * Array.length t.doc in
    t.doc <- grow_to t.doc n nil;
    t.size <- grow_to t.size n 0;
    t.prev <- grow_to t.prev n nil;
    t.next <- grow_to t.next n nil;
    t.bits <- grow_to t.bits (words n) 0
  end

let add_doc t ~doc ~bytes =
  if bytes < 0 then invalid_arg "File_cache.add_doc: negative size";
  if doc < 0 then invalid_arg "File_cache.add_doc: negative doc id";
  ensure_doc t doc;
  if t.index.(doc) = nil then begin
    ensure_slot t;
    let s = t.used in
    t.used <- s + 1;
    t.index.(doc) <- s;
    t.doc.(s) <- doc;
    t.size.(s) <- bytes
  end

let add_document t ~path ~bytes = add_doc t ~doc:(Docset.intern path) ~bytes

let slot_of_doc t doc =
  if doc < 0 || doc >= Array.length t.index then nil else t.index.(doc)

let document_size t ~path =
  match slot_of_doc t (Docset.find_id path) with s when s = nil -> None | s -> Some t.size.(s)

(* {2 The hot path} *)

type outcome = Hit of int | Miss of int | Not_found_doc

let lookup_doc t ~doc =
  let s = slot_of_doc t doc in
  if s = nil then Not_found_doc
  else begin
    if resident t s then begin
      if t.head <> s then begin
        unlink t s;
        link_front t s
      end;
      Engine.Metrics.incr t.hits;
      Hit (Array.unsafe_get t.size s)
    end
    else begin
      Engine.Metrics.incr t.misses;
      load t s;
      Miss (Array.unsafe_get t.size s)
    end
  end

let lookup t ~path = lookup_doc t ~doc:(Docset.find_id path)

let lookup_cost = function
  | Hit _ | Not_found_doc -> Costs.cache_hit
  | Miss _ -> Costs.cache_miss

(* Warm loads are lookups in registration order (minus the hit/miss
   counters): both this and the spec define them so, keeping structural
   LRU equal to clock LRU after a warm that follows traffic. *)
let warm t =
  for s = 0 to t.used - 1 do
    if (not (resident t s)) && t.size.(s) <= t.capacity then load t s
  done

let is_cached t ~path =
  match slot_of_doc t (Docset.find_id path) with s when s = nil -> false | s -> resident t s

let hits t = Engine.Metrics.counter_value t.hits
let misses t = Engine.Metrics.counter_value t.misses
let cached_bytes t = t.cached_bytes
let registered t = t.used

(* {2 The conservation law}

   Two passes prove that the LRU list threads exactly the resident set:

   - the walk from [head] takes at most [resident] steps; every node must
     be a registered slot with its residency bit set and a back-link to its
     predecessor, and the walk must end on [tail] after exactly [resident]
     nodes.  Those nodes are distinct: a node first repeated at step j,
     first seen at step i < j, has one back-link, so its predecessors at
     steps i-1 and j-1 agree — an earlier repeat, or [nil] when i = 0.
     The walk also sums their sizes;
   - the popcount finds exactly [resident] bits set in the whole bitmap,
     past [used] included.

   So [resident] distinct listed slots have their bit set, and no other
   bit is set anywhere: the list is the resident set.  Then the bytes it
   holds must equal [cached_bytes], which must lie in [0, capacity].  The
   cost is O(resident) list nodes plus O(registered / 63) bitmap words —
   nothing scans the registered slots. *)

let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

(* Words are popcounted only when non-zero: a resident set clustered in
   slot order, such as the registration tail [warm] leaves, leaves most
   words empty. *)
let bits_set t =
  let n = ref 0 in
  for i = 0 to Array.length t.bits - 1 do
    let w = Array.unsafe_get t.bits i in
    if w <> 0 then n := !n + popcount w
  done;
  !n

(* The walk is the law's largest cost (a pointer chase over [resident]
   nodes), so the fields it reads are hoisted out of the loop. *)
let check_law t =
  let prev = t.prev and next = t.next and size = t.size and bits = t.bits in
  let used = t.used and expected = t.resident in
  let s = ref t.head and last = ref nil and steps = ref 0 and bytes = ref 0 and ok = ref true in
  while !ok && !s <> nil do
    let x = !s in
    if
      !steps >= expected || x < 0 || x >= used
      || (not (bit_set bits x))
      || Array.unsafe_get prev x <> !last
    then ok := false
    else begin
      bytes := !bytes + Array.unsafe_get size x;
      last := x;
      s := Array.unsafe_get next x;
      incr steps
    end
  done;
  let module I = Engine.Invariant in
  if (not !ok) || !last <> t.tail || !steps <> expected then
    Error
      (Printf.sprintf
         "cache LRU list corrupt: walked %d of %d resident slots, stopped at %d \
          (head %d, tail %d)"
         !steps expected !s t.head t.tail)
  else
    match I.equal_int ~what:"cache residency bits set vs resident count" (bits_set t) expected with
    | Error _ as e -> e
    | Ok () -> (
        match I.equal_int ~what:"cache cached_bytes" !bytes t.cached_bytes with
        | Error _ as e -> e
        | Ok () -> (
            match I.non_negative ~what:"cache cached_bytes" t.cached_bytes with
            | Error _ as e -> e
            | Ok () -> I.leq_int ~what:"cache cached_bytes" t.cached_bytes t.capacity))

let register_invariants t registry =
  Engine.Invariant.register registry ~law:"cache.bytes-consistency" (fun () -> check_law t)

(* {2 Test-only fault injection} *)

type fault =
  | Cached_bytes_off_by of int
  | Resident_off_by of int
  | Broken_back_link
  | Cycle
  | Head_mismatch
  | Tail_mismatch
  | Unlisted_resident
  | Listed_nonresident
  | Stray_bit of int

let plant_fault_for_testing t fault =
  if t.resident < 2 || t.head = nil || t.next.(t.head) = nil then
    invalid_arg "File_cache.plant_fault_for_testing: needs two resident documents";
  let second = t.next.(t.head) in
  match fault with
  | Cached_bytes_off_by d -> t.cached_bytes <- t.cached_bytes + d
  | Resident_off_by d -> t.resident <- t.resident + d
  | Broken_back_link -> t.prev.(second) <- nil
  | Cycle -> t.next.(t.tail) <- t.head
  | Head_mismatch -> t.head <- second
  | Tail_mismatch -> t.tail <- t.head
  | Unlisted_resident ->
      let x = t.tail in
      unlink t x;
      t.resident <- t.resident - 1;
      t.cached_bytes <- t.cached_bytes - t.size.(x)
  | Listed_nonresident ->
      let y = ref 0 in
      while !y < t.used && resident t !y do
        incr y
      done;
      if !y = t.used then
        invalid_arg "File_cache.plant_fault_for_testing: needs an uncached document";
      let x = t.tail and y = !y in
      let p = t.prev.(x) in
      t.prev.(y) <- p;
      t.next.(y) <- nil;
      t.next.(p) <- y;
      t.tail <- y;
      t.cached_bytes <- t.cached_bytes - t.size.(x) + t.size.(y)
  | Stray_bit k ->
      let s = t.used + k in
      if words (s + 1) > Array.length t.bits then t.bits <- grow_to t.bits (words (s + 1)) 0;
      set_bit t s
