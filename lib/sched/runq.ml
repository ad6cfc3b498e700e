module Container = Rescont.Container

(* Each container's queue is a FIFO linked through the tasks it holds:
   [rq_prev]/[rq_next] on {!Task.t}, ending in [Task.none], with the
   container's node keeping the [head] and the [tail].  Enqueue appends,
   dequeue unlinks in O(1), and a rotate moves the head behind the rest,
   so the per-packet enqueue/dequeue cycle does no hashing and no
   allocation.  The task also records the queue holding it ([rq_owner])
   and the container slot it is queued under ([rq_slot]), so it sits in
   at most one run queue at a time; enqueueing it into a second one
   raises.  Queue ids count per run, so every run's first queue has id
   1: a queue also records its run, and a task of another run is never a
   member.

   Every container the queue has met owns one [node], found through a
   flat array indexed by [Container.slot]: its FIFO, the number of tasks
   queued anywhere in its subtree, and the set of its children whose
   subtree count is positive.  The counts are maintained along each
   node's cached ancestor chain of nodes, keyed on the physical identity
   of [Container.ancestry] (rebuilt exactly when the topology above the
   container changes), so the common bump is a straight array walk.  A
   count's 0 <-> 1 transitions are the only moments a child joins or
   leaves its parent's busy set, which is kept in [Container.children]
   order (ascending [Container.adoption_seq]) so a multilevel pick visits
   exactly the children with queued work, in the order the reference
   scheduler does.

   Invariant: a node with [live > 0] has its whole [live] added along its
   cached [chain], and such nodes are exactly the members of the dense
   [busy] set, kept in ascending [Container.id] (creation order within
   the run), the order the flat policies break ties in.  When the
   container topology generation moves, [sync] visits only the busy
   nodes and moves each one's [live] from its old chain to its new
   ancestry, skipping any whose ancestry array is physically unchanged,
   so a re-shape costs O(busy queues x depth) rather than O(every
   container ever queued).  An idle node's chain may be stale; it is
   refreshed when the node next turns busy. *)

type node = {
  container : Container.t;
  slot : int; (* [Container.slot container] *)
  mutable head : Task.t; (* oldest queued task; [Task.none] when empty *)
  mutable tail : Task.t; (* newest queued task; [Task.none] when empty *)
  mutable live : int; (* tasks queued here *)
  mutable chain : node array; (* cached nodes along the ancestry, self first *)
  mutable chain_key : Container.t array; (* the ancestry array [chain] was built from *)
  mutable count : int; (* live tasks queued anywhere in the subtree *)
  mutable kids : node array; (* children with [count > 0], adoption order, in [0, nkids) *)
  mutable nkids : int;
}

type t = {
  mutable id : int; (* matches Task.rq_owner of the tasks queued here; 0 until the first *)
  mutable run : Container.run option; (* the run [id] counts in; [None] until the first *)
  mutable nodes : node option array; (* Container.slot -> node *)
  mutable all : node array; (* every node, in creation order, in [0, nall) *)
  mutable nall : int;
  mutable busy : node array; (* the nodes with queued tasks, ascending id, in [0, nbusy) *)
  mutable nbusy : int;
  mutable total : int; (* tasks across all queues *)
  mutable topo_gen : int; (* the run's topology generation at the last [sync] *)
}

(* Queue ids only ever participate in equality tests against
   [Task.rq_owner].  A queue has no container at hand when it is made, so
   it draws its id from the run of the first task it tracks, and records
   that run. *)
let create () =
  {
    id = 0;
    run = None;
    nodes = Array.make 64 None;
    all = [||];
    nall = 0;
    busy = [||];
    nbusy = 0;
    total = 0;
    topo_gen = 0;
  }

(* The node a slot names, if it belongs to [container].  Slots are dense
   per run, and the tasks of one run queue belong to one run, so two
   containers of one run queue never share a slot; [node] refuses the
   case rather than alias their state. *)
let find t container =
  let slot = Container.slot container in
  let nodes = t.nodes in
  if slot < Array.length nodes then
    match Array.unsafe_get nodes slot with
    | Some n as found when n.container == container -> found
    | Some _ | None -> None
  else None

let node t container =
  let slot = Container.slot container in
  if slot >= Array.length t.nodes then begin
    let grown = Array.make (max (slot + 1) (2 * Array.length t.nodes)) None in
    Array.blit t.nodes 0 grown 0 (Array.length t.nodes);
    t.nodes <- grown
  end;
  match Array.unsafe_get t.nodes slot with
  | Some n when n.container == container -> n
  | Some n ->
      invalid_arg
        (Printf.sprintf "Runq.node: %s and %s share ledger slot %d (different runs)"
           (Container.name n.container) (Container.name container) slot)
  | None ->
      let n =
        {
          container;
          slot;
          head = Task.none;
          tail = Task.none;
          live = 0;
          chain = [||];
          chain_key = [||];
          count = 0;
          kids = [||];
          nkids = 0;
        }
      in
      Array.unsafe_set t.nodes slot (Some n);
      if t.nall = Array.length t.all then begin
        let grown = Array.make (max 16 (2 * t.nall)) n in
        Array.blit t.all 0 grown 0 t.nall;
        t.all <- grown
      end;
      t.all.(t.nall) <- n;
      t.nall <- t.nall + 1;
      n

let node_container n = n.container
let busy_children n = n.kids
let busy_child_count n = n.nkids

(* The nodes keep their identity across topology changes; only the
   ancestry ARRAY changes identity, which is exactly the event that
   invalidates a node's cached chain. *)
let refresh_chain t n =
  let ancestry = Container.ancestry n.container in
  if not (n.chain_key == ancestry) then begin
    n.chain <- Array.map (fun c -> node t c) ancestry;
    n.chain_key <- ancestry
  end

(* Insert in adoption order.  Per-connection children are adopted last,
   so the scan from the back usually stops at once.  Every listed child
   still has the adoption seq it was listed with: re-adoption moves the
   topology generation, and [sync] unlists the child before anything is
   inserted again. *)
let kid_insert p n =
  if p.nkids = Array.length p.kids then begin
    let grown = Array.make (max 4 (2 * p.nkids)) n in
    Array.blit p.kids 0 grown 0 p.nkids;
    p.kids <- grown
  end;
  let seq = Container.adoption_seq n.container in
  let j = ref p.nkids in
  while !j > 0 && Container.adoption_seq (Array.unsafe_get p.kids (!j - 1)).container > seq do
    Array.unsafe_set p.kids !j (Array.unsafe_get p.kids (!j - 1));
    decr j
  done;
  Array.unsafe_set p.kids !j n;
  p.nkids <- p.nkids + 1

(* By identity, not by sequence number: a child leaves the set of the
   parent it was listed under after a re-parent has given it a new one. *)
let kid_remove p n =
  let j = ref (p.nkids - 1) in
  while !j >= 0 && not (Array.unsafe_get p.kids !j == n) do
    decr j
  done;
  if !j >= 0 then begin
    for k = !j to p.nkids - 2 do
      Array.unsafe_set p.kids k (Array.unsafe_get p.kids (k + 1))
    done;
    p.nkids <- p.nkids - 1
  end

(* Add [delta] to every count along a chain; a node whose count leaves or
   reaches zero joins or leaves the busy set of the next node up. *)
let add_chain chain delta =
  let last = Array.length chain - 1 in
  for i = 0 to last do
    let n = Array.unsafe_get chain i in
    let before = n.count in
    n.count <- before + delta;
    if i < last then
      if before = 0 then kid_insert (Array.unsafe_get chain (i + 1)) n
      else if n.count = 0 then kid_remove (Array.unsafe_get chain (i + 1)) n
  done

(* Insert in ascending container id, as [kid_insert] does in adoption
   order: the newest container usually sorts last, so the scan from the
   back stops at once.  By id rather than by slot, so that reusing ledger
   slots could never reorder the set. *)
let busy_add t n =
  if t.nbusy = Array.length t.busy then begin
    let grown = Array.make (max 16 (2 * t.nbusy)) n in
    Array.blit t.busy 0 grown 0 t.nbusy;
    t.busy <- grown
  end;
  let id = Container.id n.container in
  let j = ref t.nbusy in
  while !j > 0 && Container.id (Array.unsafe_get t.busy (!j - 1)).container > id do
    Array.unsafe_set t.busy !j (Array.unsafe_get t.busy (!j - 1));
    decr j
  done;
  Array.unsafe_set t.busy !j n;
  t.nbusy <- t.nbusy + 1

let busy_remove t n =
  let j = ref (t.nbusy - 1) in
  while not (t.busy.(!j) == n) do
    decr j
  done;
  for k = !j to t.nbusy - 2 do
    Array.unsafe_set t.busy k (Array.unsafe_get t.busy (k + 1))
  done;
  t.nbusy <- t.nbusy - 1

let stale n = not (n.chain_key == Container.ancestry n.container)

(* Two passes: every stale chain gives its count back before any new
   chain takes one.  A node whose parent changed is listed under the old
   parent until the last of its busy queues lets go, so it must leave that
   set before it can join the new parent's, whichever queue comes first.
   With no busy queue there is nothing to move (a node's chain is
   refreshed when it turns busy), and otherwise any busy container names
   the run whose generation to read. *)
let sync t =
  let g =
    if t.nbusy = 0 then t.topo_gen
    else Container.topology_generation (Array.unsafe_get t.busy 0).container
  in
  if g <> t.topo_gen then begin
    t.topo_gen <- g;
    for i = 0 to t.nbusy - 1 do
      let n = Array.unsafe_get t.busy i in
      if stale n then add_chain n.chain (-n.live)
    done;
    for i = 0 to t.nbusy - 1 do
      let n = Array.unsafe_get t.busy i in
      if stale n then begin
        refresh_chain t n;
        add_chain n.chain n.live
      end
    done
  end

let of_run t (task : Task.t) =
  match t.run with Some run -> task.Task.run == run | None -> false

let mem t (task : Task.t) = task.Task.rq_owner = t.id && of_run t task

let enqueue t (task : Task.t) =
  if not (mem t task) then begin
    if task.Task.rq_owner >= 0 then
      invalid_arg
        (Printf.sprintf "Runq.enqueue: task#%d is queued in another run queue" task.Task.id);
    (match t.run with
    | Some run ->
        if not (run == task.Task.run) then
          invalid_arg (Printf.sprintf "Runq.enqueue: task#%d is of another run" task.Task.id)
    | None ->
        t.run <- Some task.Task.run;
        t.id <- Container.fresh_id task.Task.run Container.Runq_ids);
    sync t;
    let n = node t (Task.container task) in
    task.Task.rq_owner <- t.id;
    task.Task.rq_slot <- n.slot;
    task.Task.rq_prev <- n.tail;
    if n.live = 0 then begin
      n.head <- task;
      refresh_chain t n;
      busy_add t n
    end
    else n.tail.Task.rq_next <- task;
    n.tail <- task;
    n.live <- n.live + 1;
    t.total <- t.total + 1;
    add_chain n.chain 1
  end

let dequeue t (task : Task.t) =
  if mem t task then begin
    let slot = task.Task.rq_slot in
    let prev = task.Task.rq_prev and next = task.Task.rq_next in
    task.Task.rq_owner <- -1;
    task.Task.rq_slot <- -1;
    task.Task.rq_prev <- Task.none;
    task.Task.rq_next <- Task.none;
    sync t;
    match t.nodes.(slot) with
    | Some n ->
        if Task.is_none prev then n.head <- next else prev.Task.rq_next <- next;
        if Task.is_none next then n.tail <- prev else next.Task.rq_prev <- prev;
        n.live <- n.live - 1;
        t.total <- t.total - 1;
        add_chain n.chain (-1);
        if n.live = 0 then busy_remove t n
    | None -> ()
  end

let requeue t task =
  dequeue t task;
  enqueue t task

let count t = t.total

let front t container = match find t container with Some n -> n.head | None -> Task.none

let rotate t container =
  match find t container with
  | Some n when n.live > 1 ->
      let task = n.head in
      let next = task.Task.rq_next in
      n.head <- next;
      next.Task.rq_prev <- Task.none;
      task.Task.rq_prev <- n.tail;
      task.Task.rq_next <- Task.none;
      n.tail.Task.rq_next <- task;
      n.tail <- task
  | Some _ | None -> ()

let container_has_work t container =
  match find t container with Some n -> n.live > 0 | None -> false

let subtree_has_work t container =
  sync t;
  match find t container with Some n -> n.count > 0 | None -> false

let iter_busy t f =
  for i = 0 to t.nbusy - 1 do
    f (Array.unsafe_get t.busy i).container
  done

let containers_with_work t =
  let acc = ref [] in
  iter_busy t (fun c -> acc := c :: !acc);
  !acc

(* Slots are per run, not per run queue, so the slot array can be
   mostly empty: the law walks the dense creation-order list instead. *)
let iter_nodes t f =
  for i = 0 to t.nall - 1 do
    f t.all.(i)
  done

(* Walk a node's list for at most [live + 1] steps, so a corrupted link
   cannot loop, checking each member's membership fields and back link;
   [None] when the list holds exactly [live] tasks and ends at [tail]. *)
let check_list t n =
  let rec walk prev task k =
    if Task.is_none task then
      if k <> n.live then Some (Printf.sprintf "live=%d but %d tasks are linked" n.live k)
      else if not (n.tail == prev) then Some "the tail is not the last linked task"
      else None
    else if k = n.live then Some (Printf.sprintf "live=%d but more tasks are linked" n.live)
    else if not (task.Task.rq_owner = t.id && task.Task.rq_slot = n.slot) then
      Some (Format.asprintf "%a is linked but not queued here" Task.pp task)
    else if not (task.Task.rq_prev == prev) then
      Some (Format.asprintf "%a has a wrong back link" Task.pp task)
    else walk task task.Task.rq_next (k + 1)
  in
  walk Task.none n.head 0

(* Re-derive every maintained count from the queued lists and compare:
   the incremental bookkeeping ([live], [total], the subtree counts, the
   busy sets and the task-resident membership fields) must agree with a
   from-scratch recomputation at any event boundary. *)
let validate t =
  sync t;
  let mismatch = ref None in
  let total = ref 0 in
  iter_nodes t (fun n ->
      total := !total + n.live;
      if !mismatch = None then
        match check_list t n with
        | Some msg ->
            mismatch := Some (Printf.sprintf "queue %s: %s" (Container.name n.container) msg)
        | None -> ());
  if !mismatch = None && t.total <> !total then
    mismatch := Some (Printf.sprintf "total=%d but queues hold %d tasks" t.total !total);
  let names l = String.concat "; " (List.map Container.name l) in
  (* The busy set: exactly the queues with tasks, in ascending id. *)
  if !mismatch = None then begin
    let expected =
      List.init t.nall (fun i -> t.all.(i).container)
      |> List.filter (fun c -> container_has_work t c)
      |> List.sort (fun a b -> Int.compare (Container.id a) (Container.id b))
    in
    let cached = List.init t.nbusy (fun i -> t.busy.(i).container) in
    if not (List.equal ( == ) cached expected) then
      mismatch :=
        Some
          (Printf.sprintf "busy set: cached [%s], recomputed [%s]" (names cached) (names expected))
  end;
  (match !mismatch with
  | Some _ -> ()
  | None ->
      (* Subtree occupancy: rebuild the ancestor-chain sums and compare
         with the incrementally maintained counters. *)
      let fresh = Hashtbl.create 16 in
      iter_nodes t (fun n ->
          if n.live > 0 then begin
            let chain = Container.ancestry n.container in
            for i = 0 to Array.length chain - 1 do
              let c = Array.unsafe_get chain i in
              let k =
                match Hashtbl.find_opt fresh (Container.id c) with Some (_, k) -> k | None -> 0
              in
              Hashtbl.replace fresh (Container.id c) (c, k + n.live)
            done
          end);
      let fresh_count c =
        match Hashtbl.find_opt fresh (Container.id c) with Some (_, k) -> k | None -> 0
      in
      iter_nodes t (fun n ->
          let expected = fresh_count n.container in
          if !mismatch = None && n.count <> expected then
            mismatch :=
              Some
                (Printf.sprintf "subtree count for container #%d: cached %d, recomputed %d"
                   (Container.id n.container) n.count expected));
      Hashtbl.iter
        (fun cid (c, k) ->
          if !mismatch = None && find t c = None then
            mismatch :=
              Some (Printf.sprintf "container #%d has %d queued in subtree but no counter" cid k))
        fresh;
      (* Busy sets: each node's must be exactly its children with queued
         subtree work, in [Container.children] order. *)
      iter_nodes t (fun n ->
          if !mismatch = None then begin
            let expected =
              List.filter (fun c -> fresh_count c > 0) (Container.children n.container)
            in
            let cached = List.init n.nkids (fun i -> n.kids.(i).container) in
            if not (List.equal ( == ) cached expected) then
              mismatch :=
                Some
                  (Printf.sprintf "busy children of %s: cached [%s], recomputed [%s]"
                     (Container.name n.container) (names cached) (names expected))
          end));
  match !mismatch with None -> Ok () | Some msg -> Error msg

(* {2 Test-only fault injection} *)

type fault = Drop_busy_child | Swap_busy_children | Stray_idle_child

let plant_fault_for_testing t container fault =
  match find t container with
  | None -> invalid_arg "Runq.plant_fault_for_testing: container has no node"
  | Some p -> (
      match fault with
      | Drop_busy_child ->
          if p.nkids < 1 then invalid_arg "Runq.plant_fault_for_testing: no busy child to drop";
          p.nkids <- p.nkids - 1
      | Swap_busy_children ->
          if p.nkids < 2 then invalid_arg "Runq.plant_fault_for_testing: needs two busy children";
          let a = p.kids.(0) in
          p.kids.(0) <- p.kids.(1);
          p.kids.(1) <- a
      | Stray_idle_child -> (
          match
            List.find_opt
              (fun c -> match find t c with Some n -> n.count = 0 | None -> true)
              (Container.children container)
          with
          | None -> invalid_arg "Runq.plant_fault_for_testing: needs an idle child"
          | Some c -> kid_insert p (node t c)))
