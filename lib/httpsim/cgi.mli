(** Dynamic-resource (CGI) processing (paper §2, §5.6).

    Requests for dynamic resources are handled by auxiliary processes: the
    classic CGI interface forks a process per request; FastCGI-style
    persistent workers avoid the fork.  Each request consumes a fixed
    amount of CPU (defaults to the ~2 s of §5.6), then the worker sends
    the response and closes the connection.

    With [cgi_parent] set, a fresh resource container is created per CGI
    request as a child of that parent and passed to the worker process,
    which binds its thread to it — the "resource sandbox" construction of
    §5.6: capping [cgi_parent]'s [cpu_limit] caps all CGI work. *)

type mode = Fork_per_request | Persistent_pool of int

type t

val create :
  stack:Netsim.Stack.t ->
  server_process:Procsim.Process.t ->
  ?cgi_parent:Rescont.Container.t ->
  ?compute:Engine.Simtime.span ->
  ?mode:mode ->
  unit ->
  t
(** Defaults: no containers, {!Costs.cgi_compute_default} of CPU per
    request, [Fork_per_request].  Responses are 1 KB. *)

val handler : t -> Netsim.Socket.conn -> Http.meta -> unit
(** The [dynamic_handler] to plug into {!Event_server.create}.  Must run on
    the server thread: it charges dispatch (and fork) costs there, then
    hands the connection to a worker process. *)

val active : t -> int
(** Requests currently being computed (or queued for a worker). *)

val completed : t -> int
val processes_spawned : t -> int

val cpu_charged : t -> Engine.Simtime.span
(** Total CPU charged so far to the resource principals that carried CGI
    work: per-request containers when [cgi_parent] is set, the CGI
    processes' default containers otherwise.  Sampled twice, this yields
    the CGI CPU share of Fig. 13. *)
