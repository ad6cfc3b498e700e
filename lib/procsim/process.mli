(** Processes: protection domains over the simulated machine.

    A process bundles a default resource container (created at [fork],
    paper §4.6), a container descriptor table (inherited across [fork]),
    and a set of threads.  Protection is not simulated — only the resource
    management consequences of the process structure matter here. *)

type t

val create : Machine.t -> ?container_parent:Rescont.Container.t -> name:string -> unit -> t
(** Create a process with a fresh default container of default attributes.
    The container is a child of [container_parent] (default: the machine
    root). *)

val pid : t -> int
val name : t -> string
val machine : t -> Machine.t
val default_container : t -> Rescont.Container.t
val descriptors : t -> Rescont.Desc_table.t
val threads : t -> Machine.thread list

val spawn_thread :
  t -> ?container:Rescont.Container.t -> name:string -> (unit -> unit) -> Machine.thread
(** Spawn a thread bound initially to [container] (default: the process's
    default container). *)

val fork : t -> name:string -> (unit -> unit) -> t * Machine.thread
(** [fork parent ~name body] models [fork()]: the child process receives a
    copy of the parent's container descriptor table (each descriptor
    re-referenced), a fresh default container created beside the parent's,
    and one thread running [body] bound to that default container. *)

val exit_all : t -> unit
(** Process exit: kill every thread, close all container descriptors and
    release the default container. *)

val pp : Format.formatter -> t -> unit
