(** Reference (unoptimized) multilevel scheduler — the executable
    specification that {!Sched.Multilevel} must match pick-for-pick.

    Same semantics and interface as {!Sched.Multilevel.make}; it re-derives
    every decision from the container tree with list traversals and
    sorts.  Used by the equivalence property test and benchmarked
    alongside the optimized policy so the speedup stays measured. *)

val make : ?window:Engine.Simtime.span -> root:Rescont.Container.t -> unit -> Sched.Policy.t
(** [window] is the CPU-limit accounting window (default 100 ms). *)
