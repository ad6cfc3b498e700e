module Simtime = Engine.Simtime

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* A run: what [create_root] starts and every container of its tree
   shares.  Ids, usage slots and the topology generation count from
   zero in each run, so what one run does cannot depend on what ran
   before it in the process.  Only the domain running the run touches
   it, so the counters are plain fields. *)
type run = {
  arena : Usage.arena; (* also holds the run's strict-memory flag *)
  mutable topology : int; (* bumped when a parent link of an existing container changes *)
  mutable containers : int; (* last container id drawn *)
  ids : int array; (* last id drawn in each [id_space], by [space_index] *)
}

type id_space = Task_ids | Pids | Listen_ids | Conn_ids | Runq_ids

let space_index = function
  | Task_ids -> 0
  | Pids -> 1
  | Listen_ids -> 2
  | Conn_ids -> 3
  | Runq_ids -> 4

(* Children form an intrusive doubly-linked list in adoption order, so
   adopting and detaching one are O(1) however many siblings it has.  A
   link that points at its own holder means "none": [first_child == self]
   is a leaf, [next_sib == self] the youngest sibling. *)
type t = {
  id : int;
  name : string;
  run : run;
  mutable parent : t option;
  mutable first_child : t; (* oldest child; [self] when a leaf *)
  mutable last_child : t; (* youngest child; [self] when a leaf *)
  mutable prev_sib : t; (* next older sibling; [self] when oldest *)
  mutable next_sib : t; (* next younger sibling; [self] when youngest *)
  mutable committed : float; (* the children's fixed shares folded in adoption order *)
  mutable committed_ok : bool; (* [committed] is current; else re-walk the children *)
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
}

let run t = t.run

let fresh_id run space =
  let i = space_index space in
  let id = run.ids.(i) + 1 in
  run.ids.(i) <- id;
  id

let arm_strict_memory run = Usage.set_strict run.arena true

(* Schedulers cache per-subtree aggregates keyed on this counter and
   rebuild them only when the tree actually moved. *)
let topology_generation t = t.run.topology
let moved run = run.topology <- run.topology + 1

let id t = t.id
let name t = t.name
let parent t = t.parent

(* Dense per-run creation-order index (the container's own usage slot);
   schedulers key their flat per-container state arrays on it. *)
let slot t = Usage.slot t.usage

let children t =
  let rec collect acc c = if c.prev_sib == c then c :: acc else collect (c :: acc) c.prev_sib in
  if t.last_child == t then [] else collect [] t.last_child

let adoption_seq t = t.adopt_seq
let is_leaf t = t.first_child == t
(* [create_root] makes its run's first container. *)
let is_root t = t.id = 1
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

(* [f] on each child in adoption order; [f] must not unlink the child. *)
let iter_children f t =
  if t.first_child != t then begin
    let rec from c =
      f c;
      if c.next_sib != c then from c.next_sib
    in
    from t.first_child
  end

let rec invalidate_subtree t =
  t.ancestry <- [||];
  iter_children invalidate_subtree t

let depth t = Array.length (ancestry t) - 1

let root_of t =
  let chain = ancestry t in
  chain.(Array.length chain - 1)

let iter_subtree f t =
  let rec walk node =
    f node;
    if node.first_child != node then from node.first_child
  and from c =
    walk c;
    if c.next_sib != c then from c.next_sib
  in
  walk t

let check_alive t = if t.destroyed then error "container %s (#%d) is destroyed" t.name t.id

let share_of c = match c.attrs.Attrs.sched_class with Attrs.Fixed_share s -> s | Attrs.Timeshare -> 0.

(* The fixed shares of [p]'s children other than [except], folded in
   adoption order: the reference the [committed] cache must equal bit for
   bit (0.1 +. 0.2 +. 0.3 is not 0.3 +. 0.2 +. 0.1). *)
let sum_shares p ~except =
  let rec from acc c =
    let acc = if c == except then acc else acc +. share_of c in
    if c.next_sib == c then acc else from acc c.next_sib
  in
  if p.first_child == p then 0. else from 0. p.first_child

(* The cache stays exact without a walk on the per-connection path:
   appending a child extends the fold by one step, and a zero share
   leaves every partial sum unchanged (they start at [+0.], never [-0.]),
   so adopting or detaching a timeshare child costs nothing.  Detaching a
   fixed-share child or changing a child's attributes forces a re-walk. *)
let committed_share p =
  if not p.committed_ok then begin
    p.committed <- sum_shares p ~except:p;
    p.committed_ok <- true
  end;
  p.committed

(* Children may only hang off fixed-share containers, and the fixed shares
   of the children of one parent must not over-subscribe it.  [moving], a
   current child of [parent] about to be re-adopted, does not count
   against the budget. *)
let check_can_adopt ?moving parent extra_share =
  check_alive parent;
  (match parent.attrs.Attrs.sched_class with
  | Attrs.Fixed_share _ -> ()
  | Attrs.Timeshare ->
      error "container %s is timeshare-class and cannot have children (prototype restriction)"
        parent.name);
  if parent.bindings > 0 then
    error "container %s has thread bindings; threads bind only to leaves" parent.name;
  let committed =
    match moving with Some c -> sum_shares parent ~except:c | None -> committed_share parent
  in
  if committed +. extra_share > 1. +. 1e-9 then
    error "fixed shares under %s would exceed 1.0 (%.3f committed + %.3f new)" parent.name
      committed extra_share

(* [children] lists siblings in adoption order: [add_child] appends,
   [unlink_child] splices out, and a re-parent adopts afresh at the end.
   The per-parent sequence number records that order on the child, so a
   scheduler can keep a subset of the children sorted the same way
   without walking the list. *)
let add_child p c =
  c.adopt_seq <- p.adopt_next;
  p.adopt_next <- p.adopt_next + 1;
  (if p.last_child == p then p.first_child <- c
   else begin
     p.last_child.next_sib <- c;
     c.prev_sib <- p.last_child
   end);
  p.last_child <- c;
  let s = share_of c in
  if p.committed_ok && s <> 0. then p.committed <- p.committed +. s

let unlink_child p c =
  let prev = c.prev_sib and next = c.next_sib in
  if prev == c then p.first_child <- (if next == c then p else next)
  else prev.next_sib <- (if next == c then prev else next);
  if next == c then p.last_child <- (if prev == c then p else prev)
  else next.prev_sib <- (if prev == c then next else prev);
  c.prev_sib <- c;
  c.next_sib <- c;
  if share_of c <> 0. then p.committed_ok <- false

let make ?name ?(attrs = Attrs.default) ~parent ~run () =
  (match Attrs.validate attrs with Ok () -> () | Error msg -> error "invalid attributes: %s" msg);
  run.containers <- run.containers + 1;
  let id = run.containers in
  let name = match name with Some n -> n | None -> Printf.sprintf "container-%d" id in
  (* The links start as "none", i.e. [t] itself.  [let rec] would build
   the record twice (a dummy, then a field-by-field copy: ~30 ns per
   create), so they start as an immediate placeholder, overwritten before
   [t] is seen anywhere (the pattern of [Runq.dummy_task]). *)
  let unset : t = Obj.magic 0 in
  let t =
    {
      id;
      name;
      run;
      parent;
      first_child = unset;
      last_child = unset;
      prev_sib = unset;
      next_sib = unset;
      committed = 0.;
      committed_ok = true;
      adopt_seq = 0;
      adopt_next = 0;
      ancestry = [||];
      attrs;
      usage = Usage.create run.arena;
      subtree_usage = Usage.create run.arena;
      refs = 1;
      bindings = 0;
      destroyed = false;
      destroy_hooks = [];
    }
  in
  t.first_child <- t;
  t.last_child <- t;
  t.prev_sib <- t;
  t.next_sib <- t;
  (match parent with
  | Some p ->
      check_can_adopt p (share_of t);
      add_child p t;
      Usage.set_chain_parent t.subtree_usage (Some p.subtree_usage)
  | None -> ());
  t

let create_root () =
  let run =
    { arena = Usage.create_arena (); topology = 0; containers = 0; ids = Array.make 5 0 }
  in
  make ~name:"root" ~attrs:(Attrs.fixed_share ~share:1.0 ()) ~parent:None ~run ()

let create ?name ?attrs ~parent () = make ?name ?attrs ~parent:(Some parent) ~run:parent.run ()

let create_detached ?name ?attrs run = make ?name ?attrs ~parent:None ~run ()

let detach t =
  match t.parent with
  | None -> ()
  | Some p ->
      unlink_child p t;
      t.parent <- None;
      Usage.set_chain_parent t.subtree_usage None;
      moved t.run;
      invalidate_subtree t

let is_ancestor ~candidate t =
  let chain = ancestry t in
  let rec scan i =
    i < Array.length chain && ((Array.unsafe_get chain i).id = candidate.id || scan (i + 1))
  in
  scan 0

let has_ancestor t ~ancestor = is_ancestor ~candidate:ancestor t

(* Validate before moving anything: a refused re-parent leaves the tree,
   the usage chain and the topology generation as they were. *)
let set_parent t new_parent =
  check_alive t;
  (match new_parent with
  | Some p ->
      check_alive p;
      if not (p.run == t.run) then
        error "re-parenting %s under %s crosses from one run to another" t.name p.name;
      if is_ancestor ~candidate:t p then
        error "re-parenting %s under %s creates a cycle" t.name p.name;
      let moving = match t.parent with Some q when q == p -> Some t | Some _ | None -> None in
      check_can_adopt ?moving p (share_of t)
  | None -> ());
  detach t;
  match new_parent with
  | None -> ()
  | Some p ->
      add_child p t;
      t.parent <- Some p;
      Usage.set_chain_parent t.subtree_usage (Some p.subtree_usage);
      moved t.run;
      invalidate_subtree t

let set_attrs t attrs =
  check_alive t;
  (match Attrs.validate attrs with Ok () -> () | Error msg -> error "invalid attributes: %s" msg);
  (match attrs.Attrs.sched_class with
  | Attrs.Timeshare when not (is_leaf t) ->
      error "container %s has children and must stay fixed-share" t.name
  | Attrs.Fixed_share _ | Attrs.Timeshare -> ());
  (* Re-check sibling share budget with the new share value. *)
  (match (t.parent, attrs.Attrs.sched_class) with
  | Some p, Attrs.Fixed_share s ->
      if sum_shares p ~except:t +. s > 1. +. 1e-9 then
        error "fixed shares under %s would exceed 1.0" p.name
  | (Some _ | None), (Attrs.Fixed_share _ | Attrs.Timeshare) -> ());
  t.attrs <- attrs;
  match t.parent with Some p -> p.committed_ok <- false | None -> ()

(* Charges land on the container's own usage and roll up into the subtree
   usage of the container and every ancestor, so hierarchical accounting
   survives the destruction of children (§4.5).  The roll-up is an index
   walk over the usage arena's parent-slot array ([Usage.*_chain]),
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
    let rec orphan c =
      let next = c.next_sib in
      c.parent <- None;
      c.prev_sib <- c;
      c.next_sib <- c;
      Usage.set_chain_parent c.subtree_usage None;
      invalidate_subtree c;
      if next != c then orphan next
    in
    if t.first_child != t then begin
      orphan t.first_child;
      t.first_child <- t;
      t.last_child <- t;
      t.committed_ok <- false
    end;
    moved t.run;
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

let maybe_collect t = if t.refs <= 0 && t.bindings <= 0 && not (is_root t) then destroy t

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
