module Simtime = Engine.Simtime

type entry = { container : Container.t; mutable last_used : Simtime.t }

(* Container ids are distinct positive ints, so they hash to themselves:
   a lookup costs no call into the polymorphic hash.  Nothing iterates the
   index, so its bucket order is never observed. *)
module Index = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id
end)

(* The scheduler-binding set is the list [sched_set], newest entry first.
   Its order is observable — the timeshare policy sums floats over the set
   in this order — so the list stays the representation.  [index] maps
   each member's container id to its entry, and [current] is the resource
   binding's own entry, which a live binding's set always holds: rebinding
   and [touch] never scan the list. *)
type t = {
  mutable resource : Container.t;
  mutable current : entry;
  mutable sched_set : entry list;
  index : entry Index.t;
  mutable live : bool;
}

let add_entry t ~now container =
  let e = { container; last_used = now } in
  Index.replace t.index (Container.id container) e;
  t.sched_set <- e :: t.sched_set;
  t.current <- e

let create ~now container =
  Container.incr_bindings container;
  let e = { container; last_used = now } in
  let index = Index.create 8 in
  Index.replace index (Container.id container) e;
  { resource = container; current = e; sched_set = [ e ]; index; live = true }

let resource_binding t = t.resource

let set_resource_binding t ~now container =
  if not t.live then invalid_arg "Binding: used after drop";
  if Container.id container <> Container.id t.resource then begin
    Container.incr_bindings container;
    Container.decr_bindings t.resource;
    t.resource <- container
  end;
  match Index.find t.index (Container.id container) with
  | e ->
      e.last_used <- now;
      t.current <- e
  | exception Not_found -> add_entry t ~now container

let scheduler_binding t =
  let sorted =
    List.sort (fun a b -> Simtime.compare b.last_used a.last_used) t.sched_set
  in
  List.map (fun e -> e.container) sorted

(* The set in its own order (no sort, no list, no allocation), for
   aggregations over the set on the per-dispatch path: [f] is an argument
   rather than captured by a local closure, which would be allocated on
   every call. *)
let rec iter_containers f = function
  | [] -> ()
  | e :: rest ->
      f e.container;
      iter_containers f rest

let iter_scheduler_containers t f = iter_containers f t.sched_set

(* A thread killed mid-slice still reaches here from the slice-end charge;
   its dropped binding must stay empty. *)
let touch t ~now = if t.live then t.current.last_used <- now

let prune t ~now ~max_age =
  let keep e =
    Container.id e.container = Container.id t.resource
    || Simtime.span_compare (Simtime.diff now e.last_used) max_age <= 0
  in
  let before = Index.length t.index in
  t.sched_set <-
    List.filter
      (fun e ->
        keep e
        ||
        (Index.remove t.index (Container.id e.container);
         false))
      t.sched_set;
  before - Index.length t.index

let reset_scheduler_binding t ~now =
  Index.reset t.index;
  t.sched_set <- [];
  add_entry t ~now t.resource

let drop t =
  if t.live then begin
    t.live <- false;
    Container.decr_bindings t.resource;
    t.sched_set <- [];
    Index.reset t.index
  end

let size t = Index.length t.index
