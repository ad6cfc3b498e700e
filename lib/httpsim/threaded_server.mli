(** The single-process multi-threaded Web server (paper §2 Fig. 3, §4.8
    Fig. 9): a pool of kernel threads, each dedicated to one connection at
    a time.

    With the [Per_connection] policy, each accepted connection gets a fresh
    resource container and the serving thread binds to it for the life of
    the connection — the paper's first worked example of container use:
    heavy connections accumulate usage and their threads' priority decays,
    favouring the others. *)

type t

val create :
  stack:Netsim.Stack.t ->
  process:Procsim.Process.t ->
  cache:File_cache.t ->
  ?disk:Disksim.Disk.t ->
  ?workers:int ->
  ?policy:Event_server.policy ->
  ?dynamic_handler:(Netsim.Socket.conn -> Http.meta -> unit) ->
  listens:Netsim.Socket.listen list ->
  unit ->
  t
(** Default: 16 worker threads, [No_containers]. *)

val start : t -> unit
(** Spawn the worker threads.  Call once. *)

val served : t -> int
val accepts : t -> int
