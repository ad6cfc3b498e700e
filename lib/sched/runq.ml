module Container = Rescont.Container

(* Queues use lazy deletion over flat ring buffers: each per-container
   queue is a pair of parallel arrays (tasks and enqueue stamps), and an
   entry is live only while the task's own intrusive membership fields
   ([rq_owner]/[rq_slot]/[rq_stamp] on {!Task.t}) still match it.  Dequeue
   is therefore O(1) field stores; stale entries are skipped when they
   reach the front and bulk-compacted if they ever dominate a ring.

   Membership lives on the task rather than in a hash table, so the
   per-packet enqueue/dequeue cycle does no hashing and no allocation.
   A task carries one queue's fields, so it sits in at most one run
   queue at a time; enqueueing it into a second one raises.

   Every container the queue has met owns one [node], found through a
   flat array indexed by [Container.slot]: its ring (allocated when a task
   first queues there), the number of live tasks queued anywhere in its
   subtree, and the set of its children whose subtree count is positive.
   The counts are maintained along each ring's cached ancestor chain of
   nodes, keyed on the physical identity of [Container.ancestry] (rebuilt
   exactly when the topology above the container changes), so the common
   bump is a straight array walk.  A count's 0 <-> 1 transitions are the
   only moments a child joins or leaves its parent's busy set, which is
   kept in [Container.children] order (ascending [Container.adoption_seq])
   so a multilevel pick visits exactly the children with queued work, in
   the order the reference scheduler does.

   Invariant: a ring with [live > 0] has its whole [live] added along its
   cached [chain], and such rings are exactly the members of the dense
   [busy] set.  When the container topology generation moves, [sync]
   visits only the busy rings and moves each one's [live] from its old
   chain to its new ancestry, skipping any whose ancestry array is
   physically unchanged, so a re-shape costs O(busy queues x depth) rather
   than O(every container ever queued).  An idle ring's chain may be
   stale; it is refreshed when the ring next turns busy. *)

type node = {
  container : Container.t;
  slot : int; (* [Container.slot container] *)
  mutable tasks : Task.t array; (* ring: [||] until a task queues here, then a power of two *)
  mutable stamps : int array; (* enqueue stamp of the parallel [tasks] entry *)
  mutable head : int;
  mutable len : int; (* ring entries, live or stale *)
  mutable live : int;
  mutable busy_ix : int; (* slot in [busy] while [live > 0], else -1 *)
  mutable chain : node array; (* cached nodes along the ancestry, self first *)
  mutable chain_key : Container.t array; (* the ancestry array [chain] was built from *)
  mutable count : int; (* live tasks queued anywhere in the subtree *)
  mutable kids : node array; (* children with [count > 0], adoption order, in [0, nkids) *)
  mutable nkids : int;
  ix : int; (* position in [all] *)
  mutable qnext : int; (* [ix] of the next node in its [queued] bucket; -1 ends it *)
}

type t = {
  mutable id : int; (* matches Task.rq_owner of the tasks queued here; 0 until the first *)
  mutable queued : int array; (* bucket heads ([ix], -1 if empty) of the nodes with a ring *)
  mutable nqueued : int;
  mutable nodes : node option array; (* Container.slot -> node *)
  mutable all : node array; (* every node, in creation order, in [0, nall) *)
  mutable nall : int;
  mutable busy : node array; (* the rings with live tasks, in slots [0, nbusy) *)
  mutable nbusy : int;
  mutable total : int; (* live tasks across all queues *)
  mutable next_stamp : int;
  mutable topo_gen : int; (* the run's topology generation at the last [sync] *)
}

(* Queue ids only ever participate in equality tests against
   [Task.rq_owner].  A queue has no container at hand when it is made, so
   it draws its id from the run of the first task it tracks. *)
let create () =
  {
    id = 0;
    queued = Array.make 64 (-1);
    nqueued = 0;
    nodes = Array.make 64 None;
    all = [||];
    nall = 0;
    busy = [||];
    nbusy = 0;
    total = 0;
    next_stamp = 0;
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
          tasks = [||];
          stamps = [||];
          head = 0;
          len = 0;
          live = 0;
          busy_ix = -1;
          chain = [||];
          chain_key = [||];
          count = 0;
          kids = [||];
          nkids = 0;
          ix = t.nall;
          qnext = -1;
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
   invalidates a ring's cached chain. *)
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

let busy_add t n =
  if t.nbusy = Array.length t.busy then begin
    let grown = Array.make (max 16 (2 * t.nbusy)) n in
    Array.blit t.busy 0 grown 0 t.nbusy;
    t.busy <- grown
  end;
  n.busy_ix <- t.nbusy;
  t.busy.(t.nbusy) <- n;
  t.nbusy <- t.nbusy + 1

(* Swap-remove: only the set's membership matters, never its order. *)
let busy_remove t n =
  let last = t.nbusy - 1 in
  let moved = t.busy.(last) in
  t.busy.(n.busy_ix) <- moved;
  moved.busy_ix <- n.busy_ix;
  n.busy_ix <- -1;
  t.nbusy <- last

let stale n = not (n.chain_key == Container.ancestry n.container)

(* Two passes: every stale chain gives its count back before any new
   chain takes one.  A node whose parent changed is listed under the old
   parent until the last of its busy rings lets go, so it must leave that
   set before it can join the new parent's, whichever ring comes first.
   With no busy ring there is nothing to move (a ring's chain is
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

(* The nodes that ever held a ring, in the order a stdlib [Hashtbl]
   keyed by container id iterates them: the policies break ties in that
   order (see [containers_with_work]).  The table only ever gains keys,
   so the order follows from the insertions alone: ascending bucket
   [Hashtbl.hash id land (buckets - 1)], newest first within a bucket;
   64 buckets to start, doubling once the count exceeds twice the
   bucket count, each bucket splitting in order.  The buckets are chains
   through [qnext], which a loop walks without the closure
   [Hashtbl.iter] allocates on every call. *)
let bucket_of buckets n = Hashtbl.hash (Container.id n.container) land (Array.length buckets - 1)

let queued_add t n =
  let b = bucket_of t.queued n in
  n.qnext <- t.queued.(b);
  t.queued.(b) <- n.ix;
  t.nqueued <- t.nqueued + 1;
  let half = Array.length t.queued in
  if t.nqueued > 2 * half then begin
    let grown = Array.make (2 * half) (-1) in
    for b = 0 to half - 1 do
      let i = ref t.queued.(b) and lo = ref (-1) and hi = ref (-1) in
      while !i >= 0 do
        let n = t.all.(!i) in
        i := n.qnext;
        n.qnext <- -1;
        if bucket_of grown n = b then begin
          if !lo < 0 then grown.(b) <- n.ix else t.all.(!lo).qnext <- n.ix;
          lo := n.ix
        end
        else begin
          if !hi < 0 then grown.(b + half) <- n.ix else t.all.(!hi).qnext <- n.ix;
          hi := n.ix
        end
      done
    done;
    t.queued <- grown
  end

let queue_for t container =
  let n = node t container in
  if Array.length n.tasks = 0 then begin
    n.tasks <- Array.make 8 Task.none;
    n.stamps <- Array.make 8 0;
    queued_add t n
  end;
  n

let mem t (task : Task.t) = task.Task.rq_owner = t.id

(* Liveness of a ring entry: three field compares on the task itself. *)
let entry_live t slot (task : Task.t) stamp =
  task.Task.rq_owner = t.id && task.Task.rq_slot = slot && task.Task.rq_stamp = stamp

let ring_push n task stamp =
  let cap = Array.length n.tasks in
  if n.len = cap then begin
    let ncap = cap * 2 in
    let nt = Array.make ncap Task.none in
    let ns = Array.make ncap 0 in
    for i = 0 to n.len - 1 do
      let j = (n.head + i) land (cap - 1) in
      nt.(i) <- n.tasks.(j);
      ns.(i) <- n.stamps.(j)
    done;
    n.tasks <- nt;
    n.stamps <- ns;
    n.head <- 0
  end;
  let i = (n.head + n.len) land (Array.length n.tasks - 1) in
  n.tasks.(i) <- task;
  n.stamps.(i) <- stamp;
  n.len <- n.len + 1

(* Drop stale entries sitting at the front, releasing their task pointers
   so the ring never pins a dequeued task. *)
let skim t n =
  let continue = ref true in
  while !continue && n.len > 0 do
    let i = n.head land (Array.length n.tasks - 1) in
    let task = n.tasks.(i) in
    if entry_live t n.slot task n.stamps.(i) then continue := false
    else begin
      n.tasks.(i) <- Task.none;
      n.head <- n.head + 1;
      n.len <- n.len - 1
    end
  done

(* Fresh arrays rather than in-place: compaction runs only when stale
   entries outnumber live ones, and copying sidesteps the read-after-
   overwrite hazard of sliding a wrapped ring over itself. *)
let compact t n =
  let cap = Array.length n.tasks in
  let nt = Array.make cap Task.none in
  let ns = Array.make cap 0 in
  let j = ref 0 in
  for i = 0 to n.len - 1 do
    let src = (n.head + i) land (cap - 1) in
    let task = n.tasks.(src) in
    if entry_live t n.slot task n.stamps.(src) then begin
      nt.(!j) <- task;
      ns.(!j) <- n.stamps.(src);
      incr j
    end
  done;
  n.tasks <- nt;
  n.stamps <- ns;
  n.head <- 0;
  n.len <- !j

let enqueue t (task : Task.t) =
  if not (mem t task) then begin
    if task.Task.rq_owner >= 0 then
      invalid_arg
        (Printf.sprintf "Runq.enqueue: task#%d is queued in another run queue" task.Task.id);
    sync t;
    let container = Task.container task in
    let n = queue_for t container in
    let stamp = t.next_stamp in
    t.next_stamp <- stamp + 1;
    ring_push n task stamp;
    if t.id = 0 then t.id <- Container.fresh_id (Container.run container) Container.Runq_ids;
    task.Task.rq_owner <- t.id;
    task.Task.rq_slot <- n.slot;
    task.Task.rq_stamp <- stamp;
    if n.live = 0 then begin
      refresh_chain t n;
      busy_add t n
    end;
    n.live <- n.live + 1;
    t.total <- t.total + 1;
    add_chain n.chain 1;
    if n.len > 8 + (2 * n.live) then compact t n
  end

let dequeue t (task : Task.t) =
  if mem t task then begin
    let slot = task.Task.rq_slot in
    task.Task.rq_owner <- -1;
    task.Task.rq_slot <- -1;
    sync t;
    match t.nodes.(slot) with
    | Some n ->
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

let front t container =
  match find t container with
  | Some n when n.live > 0 ->
      skim t n;
      if n.len > 0 then n.tasks.(n.head land (Array.length n.tasks - 1)) else Task.none
  | Some _ | None -> Task.none

let rotate t container =
  match find t container with
  | Some n when n.live > 1 ->
      skim t n;
      if n.len > 0 then begin
        let cap = Array.length n.tasks in
        let i = n.head land (cap - 1) in
        let task = n.tasks.(i) in
        let stamp = n.stamps.(i) in
        n.tasks.(i) <- Task.none;
        n.head <- n.head + 1;
        n.len <- n.len - 1;
        ring_push n task stamp
      end
  | Some _ | None -> ()

let container_has_work t container =
  match find t container with Some n -> n.live > 0 | None -> false

let subtree_has_work t container =
  sync t;
  match find t container with Some n -> n.count > 0 | None -> false

(* Visit every container with live queued work in [queued] order, not
   the [busy] set's: policies break ties on it. *)
let iter_busy t f =
  let q = t.queued in
  for b = 0 to Array.length q - 1 do
    let i = ref (Array.unsafe_get q b) in
    while !i >= 0 do
      let n = t.all.(!i) in
      if n.live > 0 then f n.container;
      i := n.qnext
    done
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

(* Re-derive every maintained count from the ring contents and compare:
   the incremental bookkeeping ([live], [total], the subtree counts, the
   busy sets and the task-resident membership fields) must agree with a
   from-scratch recomputation at any event boundary. *)
let validate t =
  sync t;
  let mismatch = ref None in
  let total = ref 0 in
  let busy = ref 0 in
  iter_nodes t (fun n ->
      let live = ref 0 in
      let cap = Array.length n.tasks in
      for i = 0 to n.len - 1 do
        let j = (n.head + i) land (cap - 1) in
        if entry_live t n.slot n.tasks.(j) n.stamps.(j) then incr live
      done;
      total := !total + !live;
      if n.live > 0 then incr busy;
      if !mismatch = None && n.live <> !live then
        mismatch :=
          Some
            (Printf.sprintf "queue %s: live=%d but %d ring entries are live"
               (Container.name n.container) n.live !live);
      let in_busy = n.busy_ix >= 0 && n.busy_ix < t.nbusy && t.busy.(n.busy_ix) == n in
      if !mismatch = None && in_busy <> (n.live > 0) then
        mismatch :=
          Some
            (Printf.sprintf "queue %s: live=%d but %s the busy set" (Container.name n.container)
               n.live
               (if in_busy then "in" else "missing from")));
  if !mismatch = None && t.total <> !total then
    mismatch := Some (Printf.sprintf "total=%d but queues hold %d live entries" t.total !total);
  if !mismatch = None && t.nbusy <> !busy then
    mismatch :=
      Some (Printf.sprintf "busy set holds %d queues but %d have live tasks" t.nbusy !busy);
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
      let names l = String.concat "; " (List.map Container.name l) in
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
