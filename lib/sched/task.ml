type t = {
  id : int;
  run : Rescont.Container.run;
  name : string;
  binding : Rescont.Binding.t;
  kernel : bool;
  mutable rq_owner : int;
  mutable rq_slot : int;
  mutable rq_prev : t;
  mutable rq_next : t;
  mutable mslot : int;
  mutable home_cpu : int;
}

(* Never queued, never run: compared by [==] only, so its binding and
   run (which would need a container, and so a fresh container id) are
   placeholders that nothing reads.  Its run-queue links point at itself
   and are never written. *)
let rec none =
  {
    id = 0;
    run = Obj.magic 0;
    name = "none";
    binding = Obj.magic 0;
    kernel = false;
    rq_owner = -1;
    rq_slot = -1;
    rq_prev = none;
    rq_next = none;
    mslot = -1;
    home_cpu = 0;
  }

(* Ids count per run: drawn from the run of the container the task is
   first bound to. *)
let create ?(kernel = false) ~name binding =
  let run = Rescont.Container.run (Rescont.Binding.resource_binding binding) in
  {
    id = Rescont.Container.fresh_id run Rescont.Container.Task_ids;
    run;
    name;
    binding;
    kernel;
    rq_owner = -1;
    rq_slot = -1;
    rq_prev = none;
    rq_next = none;
    mslot = -1;
    home_cpu = 0;
  }

let is_none t = t == none
let container t = Rescont.Binding.resource_binding t.binding
let equal a b = a.id = b.id
let pp ppf t = Format.fprintf ppf "task#%d(%s)" t.id t.name
