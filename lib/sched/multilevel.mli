(** The prototype's multi-level scheduler (paper §5.1).

    Schedules the resource-container hierarchy directly:

    - {b fixed-share} containers receive their guaranteed fraction of the
      parent's allocation whenever they are runnable (weighted fair
      queueing over virtual time);
    - {b timeshare} containers share the parent's residual allocation with
      their timeshare siblings, weighted by numeric priority;
    - {b idle-class} containers (priority 0) run only when nothing else in
      the whole hierarchy is eligible;
    - {b CPU limits} ([cpu_limit] attribute) are enforced over an
      accounting window of 100 ms: once a container subtree has consumed its limit
      within the window, its tasks are ineligible until the window rolls
      over — the "resource sandbox" of §4.8/§5.6.

    Only leaf containers hold runnable tasks (threads bind to leaves,
    §5.1); interior nodes aggregate. *)

val make : ?invariants:Engine.Invariant.t -> root:Rescont.Container.t -> unit -> Policy.t
(** [invariants], when given, receives the [sched.runq-counts] law
    ({!Runq.validate} over this policy's run queue). *)
