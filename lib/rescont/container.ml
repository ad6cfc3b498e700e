module Simtime = Engine.Simtime

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type t = {
  id : int;
  name : string;
  mutable parent : t option;
  mutable children_rev : t list; (* newest child first; O(1) insertion *)
  mutable children_fwd : t list; (* memoized [List.rev children_rev] *)
  mutable children_dirty : bool;
  mutable adopt_seq : int; (* position among its current siblings; see [add_child] *)
  mutable adopt_next : int; (* [adopt_seq] the next child adopted here takes *)
  mutable ancestry : t array; (* [| self; parent; ...; top |]; [||] = stale *)
  mutable attrs : Attrs.t;
  usage : Usage.t;
  subtree_usage : Usage.t; (* this container plus all descendants, ever *)
  mutable refs : int;
  mutable bindings : int;
  mutable destroyed : bool;
  mutable destroy_hooks : (t -> unit) list; (* newest first; run once at destroy *)
  root : bool;
}

(* Id allocation is atomic so parallel sweep domains can build rigs
   concurrently.  No behaviour may depend on absolute id values — only on
   creation order within one rig — which the determinism tests check. *)
let next_id = Atomic.make 0
let fresh_id () = Atomic.fetch_and_add next_id 1 + 1

(* Bumped whenever a parent link of an existing container changes (detach,
   re-parent, destroy).  Schedulers cache per-subtree aggregates keyed on
   this counter and rebuild them only when the tree actually moved.  A
   cross-domain bump only forces a spurious rebuild, never a stale read
   within the bumping domain. *)
let topology_gen = Atomic.make 0
let topology_generation () = Atomic.get topology_gen

let id t = t.id
let name t = t.name
let parent t = t.parent

(* Dense per-domain creation-order index (the container's own usage
   slot); schedulers key their flat per-container state arrays on it. *)
let slot t = Usage.slot t.usage

let children t =
  if t.children_dirty then begin
    t.children_fwd <- List.rev t.children_rev;
    t.children_dirty <- false
  end;
  t.children_fwd

let adoption_seq t = t.adopt_seq
let is_leaf t = t.children_rev = []
let is_root t = t.root
let is_destroyed t = t.destroyed
let attrs t = t.attrs
let usage t = t.usage
let binding_count t = t.bindings
let ref_count t = t.refs

(* The parent chain, cached flat so every charge is a plain array walk with
   no closure and no per-level allocation.  Invalidated (set to [||]) for a
   whole subtree whenever any parent link on the path changes. *)
let ancestry t =
  if Array.length t.ancestry = 0 then begin
    let rec count n node = match node.parent with None -> n | Some p -> count (n + 1) p in
    let len = count 1 t in
    let arr = Array.make len t in
    let rec fill i node =
      Array.unsafe_set arr i node;
      match node.parent with None -> () | Some p -> fill (i + 1) p
    in
    fill 0 t;
    t.ancestry <- arr
  end;
  t.ancestry

let rec invalidate_subtree t =
  t.ancestry <- [||];
  List.iter invalidate_subtree t.children_rev

let depth t = Array.length (ancestry t) - 1

let root_of t =
  let chain = ancestry t in
  chain.(Array.length chain - 1)

let iter_subtree f t =
  let rec walk node =
    f node;
    List.iter walk (children node)
  in
  walk t

let check_alive t = if t.destroyed then error "container %s (#%d) is destroyed" t.name t.id

let share_of c = match c.attrs.Attrs.sched_class with Attrs.Fixed_share s -> s | Attrs.Timeshare -> 0.

(* Children may only hang off fixed-share containers, and the fixed shares
   of the children of one parent must not over-subscribe it. *)
let check_can_adopt parent extra_share =
  check_alive parent;
  (match parent.attrs.Attrs.sched_class with
  | Attrs.Fixed_share _ -> ()
  | Attrs.Timeshare ->
      error "container %s is timeshare-class and cannot have children (prototype restriction)"
        parent.name);
  if parent.bindings > 0 then
    error "container %s has thread bindings; threads bind only to leaves" parent.name;
  let committed = List.fold_left (fun acc c -> acc +. share_of c) 0. (children parent) in
  if committed +. extra_share > 1. +. 1e-9 then
    error "fixed shares under %s would exceed 1.0 (%.3f committed + %.3f new)" parent.name
      committed extra_share

(* [children] lists siblings in adoption order: [add_child] appends (the
   reversed list is prepended), [detach] filters, and a re-parent adopts
   afresh at the end.  The per-parent sequence number records that order
   on the child, so a scheduler can keep a subset of the children sorted
   the same way without walking the list. *)
let add_child p c =
  c.adopt_seq <- p.adopt_next;
  p.adopt_next <- p.adopt_next + 1;
  p.children_rev <- c :: p.children_rev;
  p.children_dirty <- true

let make ?name ?(attrs = Attrs.default) ~parent ~root () =
  (match Attrs.validate attrs with Ok () -> () | Error msg -> error "invalid attributes: %s" msg);
  let id = fresh_id () in
  let name = match name with Some n -> n | None -> Printf.sprintf "container-%d" id in
  let t =
    {
      id;
      name;
      parent;
      children_rev = [];
      children_fwd = [];
      children_dirty = false;
      adopt_seq = 0;
      adopt_next = 0;
      ancestry = [||];
      attrs;
      usage = Usage.create ();
      subtree_usage = Usage.create ();
      refs = 1;
      bindings = 0;
      destroyed = false;
      destroy_hooks = [];
      root;
    }
  in
  (match parent with
  | Some p ->
      check_can_adopt p (share_of t);
      add_child p t;
      Usage.set_chain_parent t.subtree_usage (Some p.subtree_usage)
  | None -> ());
  t

let create_root () =
  make ~name:"root" ~attrs:(Attrs.fixed_share ~share:1.0 ()) ~parent:None ~root:true ()

let create ?name ?attrs ~parent () = make ?name ?attrs ~parent:(Some parent) ~root:false ()
let create_detached ?name ?attrs () = make ?name ?attrs ~parent:None ~root:false ()

let detach t =
  match t.parent with
  | None -> ()
  | Some p ->
      p.children_rev <- List.filter (fun c -> c.id <> t.id) p.children_rev;
      p.children_dirty <- true;
      t.parent <- None;
      Usage.set_chain_parent t.subtree_usage None;
      Atomic.incr topology_gen;
      invalidate_subtree t

let is_ancestor ~candidate t =
  let chain = ancestry t in
  let rec scan i =
    i < Array.length chain && ((Array.unsafe_get chain i).id = candidate.id || scan (i + 1))
  in
  scan 0

let has_ancestor t ~ancestor = is_ancestor ~candidate:ancestor t

let set_parent t new_parent =
  check_alive t;
  (match new_parent with
  | Some p ->
      check_alive p;
      if is_ancestor ~candidate:t p then error "re-parenting %s under %s creates a cycle" t.name p.name
  | None -> ());
  detach t;
  match new_parent with
  | None -> ()
  | Some p ->
      check_can_adopt p (share_of t);
      add_child p t;
      t.parent <- Some p;
      Usage.set_chain_parent t.subtree_usage (Some p.subtree_usage);
      Atomic.incr topology_gen;
      invalidate_subtree t

let set_attrs t attrs =
  check_alive t;
  (match Attrs.validate attrs with Ok () -> () | Error msg -> error "invalid attributes: %s" msg);
  (match (attrs.Attrs.sched_class, t.children_rev) with
  | Attrs.Timeshare, _ :: _ ->
      error "container %s has children and must stay fixed-share" t.name
  | (Attrs.Fixed_share _ | Attrs.Timeshare), _ -> ());
  (* Re-check sibling share budget with the new share value. *)
  (match (t.parent, attrs.Attrs.sched_class) with
  | Some p, Attrs.Fixed_share s ->
      let committed =
        List.fold_left (fun acc c -> if c.id = t.id then acc else acc +. share_of c) 0. (children p)
      in
      if committed +. s > 1. +. 1e-9 then
        error "fixed shares under %s would exceed 1.0" p.name
  | (Some _ | None), (Attrs.Fixed_share _ | Attrs.Timeshare) -> ());
  t.attrs <- attrs

(* Charges land on the container's own usage and roll up into the subtree
   usage of the container and every ancestor, so hierarchical accounting
   survives the destruction of children (§4.5).  The roll-up is an index
   walk over the ledger arena's parent-slot array ([Usage.*_chain]),
   maintained eagerly at attach/detach/destroy — no record chasing, no
   closures, no allocation. *)

let charge_cpu t ~kernel span =
  Usage.charge_cpu t.usage ~kernel span;
  Usage.charge_cpu_chain t.subtree_usage ~kernel span

let charge_rx t ~packets ~bytes =
  Usage.charge_rx t.usage ~packets ~bytes;
  Usage.charge_rx_chain t.subtree_usage ~packets ~bytes

let charge_tx t ~packets ~bytes =
  Usage.charge_tx t.usage ~packets ~bytes;
  Usage.charge_tx_chain t.subtree_usage ~packets ~bytes

let charge_memory t delta =
  Usage.charge_memory t.usage delta;
  Usage.charge_memory_chain t.subtree_usage delta

let charge_disk t ~bytes span =
  Usage.charge_disk t.usage ~bytes span;
  Usage.charge_disk_chain t.subtree_usage ~bytes span

let subtree_usage t = t.subtree_usage
let subtree_cpu t = Usage.cpu_total t.subtree_usage

let guaranteed_fraction t =
  let chain = ancestry t in
  let acc = ref 1.0 in
  for i = Array.length chain - 1 downto 0 do
    match (Array.unsafe_get chain i).attrs.Attrs.sched_class with
    | Attrs.Fixed_share s -> acc := s *. !acc
    | Attrs.Timeshare -> ()
  done;
  !acc

let effective_cpu_limit t =
  let chain = ancestry t in
  let acc = ref 1.0 in
  for i = Array.length chain - 1 downto 0 do
    match (Array.unsafe_get chain i).attrs.Attrs.cpu_limit with
    | Some l -> acc := Float.min l !acc
    | None -> ()
  done;
  !acc

let destroy t =
  if not t.destroyed then begin
    (* §4.6: when a parent is destroyed, its children get "no parent". *)
    List.iter
      (fun c ->
        c.parent <- None;
        Usage.set_chain_parent c.subtree_usage None;
        invalidate_subtree c)
      t.children_rev;
    t.children_rev <- [];
    t.children_fwd <- [];
    t.children_dirty <- false;
    Atomic.incr topology_gen;
    detach t;
    t.destroyed <- true;
    (* Teardown notifications (kernel modules drop per-container state —
       deferred-processing queues, service stamps).  Hooks run exactly
       once, after the container is marked destroyed. *)
    let hooks = t.destroy_hooks in
    t.destroy_hooks <- [];
    List.iter (fun f -> f t) hooks
  end

let on_destroy t f =
  check_alive t;
  t.destroy_hooks <- f :: t.destroy_hooks

let retain t =
  check_alive t;
  t.refs <- t.refs + 1

let maybe_collect t = if t.refs <= 0 && t.bindings <= 0 && not t.root then destroy t

let release t =
  if not t.destroyed then begin
    t.refs <- t.refs - 1;
    maybe_collect t
  end

let incr_bindings t =
  check_alive t;
  if not (is_leaf t) then error "thread binding requires a leaf container (%s has children)" t.name;
  t.bindings <- t.bindings + 1

let decr_bindings t =
  t.bindings <- t.bindings - 1;
  maybe_collect t

let pp ppf t =
  Format.fprintf ppf "#%d %s [%a]%s" t.id t.name Attrs.pp t.attrs
    (if t.destroyed then " (destroyed)" else "")

let pp_tree ppf t =
  let rec walk indent node =
    Format.fprintf ppf "%s%s [%a] cpu=%a subtree=%a@." indent node.name Attrs.pp node.attrs
      Simtime.pp_span (Usage.cpu_total node.usage) Simtime.pp_span
      (Usage.cpu_total node.subtree_usage);
    List.iter (walk (indent ^ "  ")) (children node)
  in
  walk "" t
