module Simtime = Engine.Simtime

(* The scheduler-binding set is linked through its entries, newest member
   first: the timeshare policy sums floats over the set in this order, so
   the order is observable, and [prune] unlinks members in place.  [index]
   maps a member's container id to its entry; [current] is the resource
   binding's entry, which a live set always holds, so rebinding and
   [touch] never scan the set.  [nil] ends every set and is compared with
   [==] only; its container is a placeholder nothing reads. *)
type entry = { container : Container.t; mutable last_used : Simtime.t; mutable next : entry }

let rec nil = { container = Obj.magic 0; last_used = Simtime.zero; next = nil }

(* Container ids are distinct positive ints, so they hash to themselves:
   a lookup costs no call into the polymorphic hash.  Nothing iterates the
   index, so its bucket order is never observed. *)
module Index = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id
end)

type t = {
  mutable resource : Container.t;
  mutable current : entry;
  mutable newest : entry; (* the set's head, [nil] when empty *)
  index : entry Index.t;
  mutable live : bool;
}

let add_entry t ~now container =
  let e = { container; last_used = now; next = t.newest } in
  Index.replace t.index (Container.id container) e;
  t.newest <- e;
  t.current <- e

let create ~now container =
  Container.incr_bindings container;
  let t = { resource = container; current = nil; newest = nil; index = Index.create 8; live = true } in
  add_entry t ~now container;
  t

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

let rec members e = if e == nil then [] else e :: members e.next

let scheduler_binding t =
  List.sort (fun a b -> Simtime.compare b.last_used a.last_used) (members t.newest)
  |> List.map (fun e -> e.container)

(* The set in its own order (no sort, no list, no allocation), for
   aggregations over the set on the per-dispatch path: [f] is an argument
   rather than captured by a local closure, which would be allocated on
   every call. *)
let rec iter_containers f e =
  if e != nil then begin
    f e.container;
    iter_containers f e.next
  end

let iter_scheduler_containers t f = iter_containers f t.newest

(* A thread killed mid-slice still reaches here from the slice-end charge;
   its dropped binding must stay empty. *)
let touch t ~now = if t.live then t.current.last_used <- now

let expired t ~now ~max_age e =
  Container.id e.container <> Container.id t.resource
  && Simtime.span_compare (Simtime.diff now e.last_used) max_age > 0

(* Unlink the expired members from [e] on, in place; [prev] is the last
   member kept, [nil] while none is. *)
let rec prune_after t ~now ~max_age prev e removed =
  if e == nil then removed
  else if expired t ~now ~max_age e then begin
    Index.remove t.index (Container.id e.container);
    if prev == nil then t.newest <- e.next else prev.next <- e.next;
    prune_after t ~now ~max_age prev e.next (removed + 1)
  end
  else prune_after t ~now ~max_age e e.next removed

let prune t ~now ~max_age = prune_after t ~now ~max_age nil t.newest 0

let reset_scheduler_binding t ~now =
  Index.reset t.index;
  t.newest <- nil;
  add_entry t ~now t.resource

let drop t =
  if t.live then begin
    t.live <- false;
    Container.decr_bindings t.resource;
    t.newest <- nil;
    Index.reset t.index
  end

let size t = Index.length t.index
