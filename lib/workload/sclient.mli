(** S-Client-style closed-loop HTTP client populations (paper §5.2,
    citation [4]).

    Each simulated client runs a closed loop: open a connection (or reuse a
    persistent one), issue a request, wait for the response, think, repeat.
    Clients are event-driven (they live on the "infinitely fast" client
    machines), so any number of them cost the simulated server only their
    traffic.

    Connection attempts that die silently (SYN dropped by an overloaded or
    defended server) are retried after a TCP-like timeout, as the paper's
    S-Clients do. *)

type t

val create :
  stack:Netsim.Stack.t ->
  ?name:string ->
  ?src_base:Netsim.Ipaddr.t ->
  ?port:int ->
  ?path:string ->
  ?path_mix:(float * string) list ->
  ?doc_mix:Engine.Dist.t * int array ->
  ?persistent:bool ->
  ?requests_per_conn:int ->
  ?think_time:Engine.Simtime.span ->
  ?jitter:Engine.Simtime.span ->
  ?syn_timeout:Engine.Simtime.span ->
  ?retry_delay:Engine.Simtime.span ->
  ?seed:int ->
  count:int ->
  unit ->
  t
(** [count] clients with source addresses [src_base + i] (default base
    10.1.0.1), requesting [path] (default "/doc/1k") on [port] (default
    80).  [persistent] (default false) switches to HTTP/1.1 with
    [requests_per_conn] requests per connection (default 64).  Defaults:
    zero think time and jitter, 3 s SYN timeout, 500 ms retry delay.
    [jitter] adds a uniform random extra think time in [0, jitter],
    de-phasing otherwise deterministic closed loops; [seed] makes the
    jitter stream reproducible.  [path_mix], when given, overrides [path]
    with a weighted choice per request (e.g. a Zipf-popularity document
    set).  [doc_mix] is the scale form of the same thing: a finite
    categorical distribution (see {!Engine.Dist.sample_index}) over an
    array of interned {!Httpsim.Docset} ids — how a 10^6-document Zipf
    population is expressed without materializing weighted path pairs.
    Giving both mixes is an error. *)

val start : t -> unit
(** Begin all client loops (idempotent). *)

val stop : t -> unit
(** Stop initiating new requests; in-flight exchanges finish naturally. *)

val completed : t -> int
(** Total responses received. *)

val refused : t -> int
val timeouts : t -> int

val response_times : t -> Engine.Stats.Summary.t
(** Per-request latency (initiation to response) in milliseconds. *)

val response_percentile : t -> float -> float
(** Latency percentile estimate in milliseconds (reservoir-sampled);
    0. when no responses have been recorded.
    @raise Invalid_argument if the fraction is outside [0, 1]. *)

val reset_stats : t -> unit
(** Zero the counters and latency summary (end-of-warmup). *)
