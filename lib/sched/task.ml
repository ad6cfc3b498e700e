type t = {
  id : int;
  name : string;
  binding : Rescont.Binding.t;
  kernel : bool;
  mutable rq_owner : int;
  mutable rq_slot : int;
  mutable rq_stamp : int;
  mutable mslot : int;
  mutable home_cpu : int;
}

(* Ids count per run: drawn from the run of the container the task is
   first bound to. *)
let create ?(kernel = false) ~name binding =
  let run = Rescont.Container.run (Rescont.Binding.resource_binding binding) in
  {
    id = Rescont.Container.fresh_id run Rescont.Container.Task_ids;
    name;
    binding;
    kernel;
    rq_owner = -1;
    rq_slot = -1;
    rq_stamp = 0;
    mslot = -1;
    home_cpu = 0;
  }

(* Never queued, never run: compared by [==] only, so its binding (which
   would need a container, and so a fresh container id) is a placeholder
   that nothing reads. *)
let none =
  {
    id = 0;
    name = "none";
    binding = Obj.magic 0;
    kernel = false;
    rq_owner = -1;
    rq_slot = -1;
    rq_stamp = 0;
    mslot = -1;
    home_cpu = 0;
  }

let is_none t = t == none
let container t = Rescont.Binding.resource_binding t.binding
let equal a b = a.id = b.id
let pp ppf t = Format.fprintf ppf "task#%d(%s)" t.id t.name
