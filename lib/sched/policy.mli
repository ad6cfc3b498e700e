(** The interface between the CPU dispatcher and a scheduling policy.

    The dispatcher tells the policy which tasks are runnable, asks it to
    pick the next task to receive a time slice, and reports every charged
    slice — including slices charged to a container other than the running
    task's (interrupt misaccounting in the unmodified kernel model).  A
    policy is a record of closures so schedulers can be swapped per
    experiment without functorising the dispatcher. *)

type t = {
  name : string;
  enqueue : Task.t -> unit;
      (** The task became runnable.  Idempotent for an already-queued task. *)
  dequeue : Task.t -> unit;
      (** The task blocked or exited.  Idempotent for an unknown task. *)
  requeue : Task.t -> unit;
      (** The task's resource binding changed while runnable; move it to the
          queue of its new container. *)
  pick : now:Engine.Simtime.t -> Task.t;
      (** Choose the task to run next; the task stays queued (it is picked
          again as long as it remains runnable).  {!Task.none} when no
          runnable task is currently eligible — possibly because every
          runnable task is throttled by a CPU limit; see [next_release]. *)
  charge : container:Rescont.Container.t -> now:Engine.Simtime.t -> Engine.Simtime.span -> unit;
      (** Account consumed CPU against [container]'s scheduling state (the
          dispatcher separately updates {!Rescont.Usage}). *)
  next_release : now:Engine.Simtime.t -> Engine.Simtime.t option;
      (** When [pick] returned {!Task.none} while throttled tasks exist: the
          earliest future instant at which a throttled task may become
          eligible again, so the dispatcher can arm a timer. *)
  runnable_count : unit -> int;
}
