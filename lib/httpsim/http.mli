(** Message-level HTTP: requests and responses as payload tags.

    The simulator never moves bytes, so an HTTP request is its metadata —
    path and persistence — encoded into the {!Netsim.Payload} tag, and a
    response is a payload sized by the document plus header overhead.
    Request metadata carries both the path and its interned {!Docset} id;
    the id is what the serving hot path uses (an O(1) cache probe), the
    path is the compat view for traces and filters. *)

type meta = { path : string; doc : int; keep_alive : bool }

val request : now:Engine.Simtime.t -> ?keep_alive:bool -> path:string -> unit -> Netsim.Payload.t
(** A request message (~250 bytes on the wire, like a short GET). *)

val request_doc : now:Engine.Simtime.t -> ?keep_alive:bool -> doc:int -> unit -> Netsim.Payload.t
(** {!request} by interned doc id — the workload hot path; no string
    hashing, one per-domain array probe.
    @raise Invalid_argument on an id {!Docset.intern} never returned. *)

val meta_of_path : ?keep_alive:bool -> string -> meta
(** Metadata for a path (interning it); for tests and examples that build
    responses without going through {!parse}. *)

val parse : Netsim.Payload.t -> meta
(** Decode a request payload.  Every path {!request} accepts comes back
    unchanged, spaces included.
    @raise Invalid_argument on a payload that was not built by {!request}. *)

val response : now:Engine.Simtime.t -> meta -> body_bytes:int -> Netsim.Payload.t
(** A response message: body plus ~200 bytes of headers; the tag carries
    the request path so clients can correlate. *)

val is_dynamic : meta -> bool
(** Requests under "/cgi" resolve to dynamic resources. *)

val request_bytes : int
val header_bytes : int
