(** Global document-id interning: paths to dense ints, once.

    The request hot path used to hash a heap-allocated path string per
    message; with a million-document working set that is the dominant
    per-request cost.  [Docset] assigns each distinct path a small dense
    int once, and everything downstream ({!Http} metas, {!File_cache}
    lookups, the S-client popularity mixes) carries the int.  Paths remain
    available as a compat view for traces and existing string call sites.

    Storage is flat: an open-addressing table of ids, each slot holding
    the path's [Hashtbl.hash] beside its id, and every path's bytes packed
    into one growable buffer indexed by an offsets array.  Interned paths
    therefore cost a few heap blocks in all, not two per path, so every
    later major collection has a few blocks to mark instead of millions.

    The table is process-global and safe to use from any domain: interning
    is mutex-serialized (cold path), [path_of] is lock-free.  Ids are
    dense from 0 and assigned in interning order, which may vary between
    runs that intern from parallel domains — callers must never let id
    {e order} affect simulation outcomes (per-cache state uses its own
    dense slots). *)

val intern : string -> int
(** The id for [path], allocating one on first sight. *)

val find_id : string -> int
(** Like {!intern} but never allocates an id: [-1] if the path has never
    been interned (and so cannot name a registered document). *)

val path_of : int -> string
(** The path interned as [id], copied out of the byte buffer into a fresh
    string on every call: keep it off hot paths.
    @raise Invalid_argument on an id {!intern} never returned. *)

val size : unit -> int
(** Number of distinct interned paths. *)
