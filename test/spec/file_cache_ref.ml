(* Executable specification for {!File_cache}.

   This is the pre-arena implementation — a string-keyed hashtable with a
   clock-stamp LRU found by folding the whole table — kept, per repo
   convention, as the obviously-correct model the struct-of-arrays arena
   is QCheck-lockstepped against.  Two deliberate fixes over the historic
   code, both pinned by tests:

   - registration prepends ([order_rev]) instead of the old
     [t.order <- t.order @ [path]] quadratic append; [warm] reverses once;
   - eviction ties on equal [last_used] break by registration index, not
     hashtable iteration order, making the victim sequence deterministic
     and equal to the arena's structural LRU order (warmed-but-untouched
     entries die oldest-registered first). *)

module File_cache = Httpsim.File_cache

type entry = {
  bytes : int;
  reg : int; (* registration index: the deterministic tie-break *)
  mutable cached : bool;
  mutable last_used : int;
}

type t = {
  capacity : int;
  docs : (string, entry) Hashtbl.t;
  mutable order_rev : string list; (* registration order, newest first *)
  mutable registered : int;
  mutable cached_bytes : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity_bytes = 64 * 1024 * 1024) () =
  if capacity_bytes <= 0 then invalid_arg "File_cache_ref.create: capacity must be positive";
  {
    capacity = capacity_bytes;
    docs = Hashtbl.create 256;
    order_rev = [];
    registered = 0;
    cached_bytes = 0;
    clock = 0;
    hits = 0;
    misses = 0;
  }

let add_document t ~path ~bytes =
  if bytes < 0 then invalid_arg "File_cache_ref.add_document: negative size";
  if not (Hashtbl.mem t.docs path) then begin
    Hashtbl.replace t.docs path { bytes; reg = t.registered; cached = false; last_used = 0 };
    t.registered <- t.registered + 1;
    t.order_rev <- path :: t.order_rev
  end

let document_size t ~path =
  match Hashtbl.find_opt t.docs path with Some e -> Some e.bytes | None -> None

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun _ e acc ->
        if not e.cached then acc
        else
          match acc with
          | Some best
            when best.last_used < e.last_used
                 || (best.last_used = e.last_used && best.reg < e.reg) ->
              acc
          | Some _ | None -> Some e)
      t.docs None
  in
  match victim with
  | None -> false
  | Some e ->
      e.cached <- false;
      t.cached_bytes <- t.cached_bytes - e.bytes;
      true

let load t e =
  let rec make_room () =
    if t.cached_bytes + e.bytes > t.capacity then if evict_lru t then make_room ()
  in
  if e.bytes <= t.capacity then begin
    make_room ();
    e.cached <- true;
    t.cached_bytes <- t.cached_bytes + e.bytes
  end

let lookup t ~path =
  t.clock <- t.clock + 1;
  match Hashtbl.find_opt t.docs path with
  | None -> File_cache.Not_found_doc
  | Some e ->
      e.last_used <- t.clock;
      if e.cached then begin
        t.hits <- t.hits + 1;
        File_cache.Hit e.bytes
      end
      else begin
        t.misses <- t.misses + 1;
        load t e;
        File_cache.Miss e.bytes
      end

(* Warm loads are stamped lookups in registration order (minus the
   hit/miss counters); {!File_cache} shares this definition, which keeps
   its structural LRU equal to this clock LRU after warms that follow
   traffic. *)
let warm t =
  List.iter
    (fun path ->
      match Hashtbl.find_opt t.docs path with
      | Some e when (not e.cached) && e.bytes <= t.capacity ->
          t.clock <- t.clock + 1;
          e.last_used <- t.clock;
          load t e
      | Some _ | None -> ())
    (List.rev t.order_rev)

let is_cached t ~path =
  match Hashtbl.find_opt t.docs path with Some e -> e.cached | None -> false

let hits t = t.hits
let misses t = t.misses
let cached_bytes t = t.cached_bytes
