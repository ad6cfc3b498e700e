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

(* Atomic so parallel sweep domains can create tasks concurrently; nothing
   may depend on absolute id values, only on per-rig creation order. *)
let next_id = Atomic.make 0

let create ?(kernel = false) ~name binding =
  {
    id = Atomic.fetch_and_add next_id 1 + 1;
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
let scheduler_containers t = Rescont.Binding.scheduler_binding t.binding
let equal a b = a.id = b.id
let pp ppf t = Format.fprintf ppf "task#%d(%s)" t.id t.name
