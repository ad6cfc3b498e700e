(** The single-process event-driven Web server (paper §2, Fig. 2; derived
    conceptually from the thttpd-based server of §5.2).

    One thread multiplexes every connection.  Per iteration it polls for
    events — with either the classic [select()] model, whose kernel cost is
    linear in the size of the whole interest set, or the scalable event API
    of citation [5], whose cost depends only on ready events — then accepts
    new connections and serves ready requests.

    Container usage is configurable per the paper's experiments:
    - [No_containers]: the unmodified application; an optional user-level
      preference function models the §5.5 attempt to favour some clients
      purely in application code.
    - [Inherit_listen]: accepted connections are bound to their listening
      socket's container (two-class prioritisation via filters, §5.5/§5.7).
    - [Per_connection]: a fresh container per connection, child of a given
      parent, as in §5.4's overhead test.

    When containers are in use, the server thread rebinds its resource
    binding to the connection's container while working on it, charging
    each rebind at the paper's Table 1 cost, and orders its work by
    container priority. *)

type api = Select | Event_api

type policy =
  | No_containers
  | Inherit_listen
  | Per_connection of {
      parent : Rescont.Container.t;
      priority_of : Netsim.Socket.conn -> int;
    }

type t

val create :
  stack:Netsim.Stack.t ->
  process:Procsim.Process.t ->
  cache:File_cache.t ->
  ?disk:Disksim.Disk.t ->
  ?api:api ->
  ?policy:policy ->
  ?user_preference:(Netsim.Socket.conn -> int) ->
  ?dynamic_handler:(Netsim.Socket.conn -> Http.meta -> unit) ->
  listens:Netsim.Socket.listen list ->
  unit ->
  t
(** Defaults: [Select], [No_containers], no preference, no dynamic handler
    (requests for dynamic resources get 404-like small responses). *)

val start : t -> Procsim.Machine.thread
(** Spawn the server's thread.  Call once. *)

val static_served : t -> int
(** Static requests fully responded to. *)

val open_conns : t -> int
val accepts : t -> int
val poll_rounds : t -> int
val process : t -> Procsim.Process.t

(** {1 Test hooks}

    For event-API servers only.  Each reads the server's state at the
    current instant and serves and charges nothing.  The server's own pick
    is left alone, so a test may call them between any two simulation
    events. *)

type ready_event = Accept of Netsim.Socket.listen | Data of Netsim.Socket.conn

val pick_for_testing : t -> int * (int * ready_event) option
(** What the event API's single pass finds: the ready count, and the one
    event a round would serve with its priority. *)

val sorted_for_testing : t -> (int * ready_event) list
(** The select() path's fill-and-sort over the same state: every ready
    event, in serving order.  The single pass must pick its head. *)

val scan_for_testing : t -> int
(** The single pass alone, returning the ready count.  It allocates
    nothing, so a test can measure a poll's allocation. *)
