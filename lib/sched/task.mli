(** The unit the CPU scheduler dispatches: one kernel-visible thread.

    A task carries the thread's container bindings (its identity as a
    resource principal); everything else about threads (continuations,
    blocking state) lives in {!Procsim}. *)

type t = {
  id : int;  (** Counts from 1 in creation order within the run. *)
  run : Rescont.Container.run;
      (** The run the task was made in: that of the container it was
          first bound to. *)
  name : string;
  binding : Rescont.Binding.t;
  kernel : bool;  (** [true] for kernel threads, e.g. per-process network threads. *)
  mutable rq_owner : int;
      (** Intrusive run-queue bookkeeping, owned by {!Runq}: the id of
          the one run queue currently holding the task ([-1] when none).
          Membership checks read a task field instead of a hash table. *)
  mutable rq_slot : int;
      (** {!Rescont.Container.slot} of the container the task is queued
          under; owned by {!Runq}. *)
  mutable rq_prev : t;
      (** The task queued just ahead of this one under the same
          container, {!none} at the head or when unqueued; owned by
          {!Runq}. *)
  mutable rq_next : t;  (** The task queued just behind; owned by {!Runq}. *)
  mutable mslot : int;
      (** Thread-table slot on the machine running this task, [-1] when
          none; owned by [Procsim.Machine]. *)
  mutable home_cpu : int;
      (** Processor whose run-queue shard currently holds (or last held)
          the task; owned by [Procsim.Machine].  Always [0] on a
          uniprocessor. *)
}

val create : ?kernel:bool -> name:string -> Rescont.Binding.t -> t

val none : t
(** The absent task: what {!Policy.t.pick} and {!Runq.front} answer when
    there is nothing to run, so that a pick, which runs once per slice,
    boxes no option.  It also ends every run-queue list.  Test it with
    {!is_none}; its binding and run must not be read, and nothing writes
    its fields. *)

val is_none : t -> bool
val container : t -> Rescont.Container.t
(** The task's current resource binding. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
