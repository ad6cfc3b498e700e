(* Incremental reimplementation of the multilevel scheduler.  The policy's
   semantics — virtual-time weighted fair queueing per node, the
   start-time arrival rule, idle-class demotion and windowed CPU limits —
   are specified by [Multilevel_ref], and the equivalence property test
   holds this module to the exact pick sequence of that reference.

   What changed is purely mechanical cost.  The original re-derived every
   decision from scratch: per pick and per node it allocated filtered
   lists, partitioned, folded weights, and ran an O(k log k) sort whose
   comparator did two hash-table lookups per comparison.  Here each
   interior node keeps an index of its children — container, scheduler
   state and the run-queue's live-subtree counter, cached as a flat
   array — so a pick is one allocation-free O(k) scan per node on the
   path down the tree: eligibility, weight sums and the arrival rule in
   one pass, then a min-scan instead of a sort (re-scanned only in the
   rare case that a chosen subtree turns out to be fully throttled).

   The child index is keyed on the physical identity of the container's
   memoized children list, so it rebuilds itself exactly when the child
   set changes; the run-queue counter refs survive topology rebuilds, so
   cached pointers stay valid.  Each child's index entry is built once and
   kept on its own state, so a rebuild only refills the array. *)

module Simtime = Engine.Simtime
module Container = Rescont.Container
module Attrs = Rescont.Attrs

(* Per-pick float scratch, one record per node.  All-float records have
   the flat representation, so accumulating into these fields stores
   unboxed floats — a [float ref] would box on every [:=].  Safe as
   per-node (not per-call) state because a pick descends a tree: no node
   is ever re-entered within one pick. *)
type fscratch = {
  mutable a_fixed : float; (* sum of eligible fixed shares *)
  mutable a_ts : float; (* sum of eligible timeshare priorities *)
  mutable a_residual : float; (* residual weight for timeshare kids, this round *)
  mutable a_tssum : float; (* clamped a_ts, this round *)
}

type cstate = {
  mutable vt : float; (* weight-normalised service received *)
  mutable last_weight : float; (* weight in effect when last picked *)
  mutable win_id : int;
  mutable win_used : int; (* ns consumed by the subtree in current window *)
  mutable last_round : int; (* as a child: last pick round it was eligible *)
  mutable tried_round : int; (* as a child: round in which retry already tried it *)
  mutable node_round : int; (* as a parent: pick round counter *)
  mutable node_vnow : float; (* as a parent: virtual clock (max served vt) *)
  mutable kids_key : Container.t list; (* children list the index was built from *)
  mutable kids : kid array; (* as a parent: index over children *)
  mutable as_kid : kid option; (* as a child: its entry in the parent's index *)
  mutable cchain : cstate array; (* charge path: states of self..top, cached *)
  mutable cchain_key : Container.t array; (* ancestry array the chain was built from *)
  mutable scratch : kid array; (* eligible children of the current round *)
  mutable s_elig : int; (* as a parent: eligible-child count, this round *)
  mutable s_any : bool; (* as a parent: any child subtree has queued work *)
  fs : fscratch; (* as a parent: float accumulators, this round *)
}

and kid = { kc : Container.t; ks : cstate; kcount : int ref }

let make ?(window = Simtime.ms 100) ?invariants ~root () =
  let window_ns = Simtime.span_to_ns window in
  if window_ns <= 0 then invalid_arg "Multilevel.make: window must be positive";
  let runq = Runq.create () in
  (match invariants with
  | Some registry ->
      Engine.Invariant.register registry ~law:"sched.runq-counts" (fun () -> Runq.validate runq)
  | None -> ());
  (* Scheduler state lives in a flat array indexed by [Container.slot] —
     dense per-domain creation order, never reused — so the hot lookup is
     a bounds check and an array load instead of a hash probe. *)
  let states : cstate option array ref = ref (Array.make 64 None) in
  let state_of container =
    let slot = Container.slot container in
    let arr =
      let a = !states in
      if slot < Array.length a then a
      else begin
        let n = Array.make (max (slot + 1) (2 * Array.length a)) None in
        Array.blit a 0 n 0 (Array.length a);
        states := n;
        n
      end
    in
    match Array.unsafe_get arr slot with
    | Some s -> s
    | None ->
        let s =
          { vt = 0.; last_weight = 1.; win_id = -1; win_used = 0; last_round = 0;
            tried_round = -1; node_round = 0; node_vnow = 0.; kids_key = []; kids = [||];
            as_kid = None; cchain = [||]; cchain_key = [||];
            scratch = [||]; s_elig = 0; s_any = false;
            fs = { a_fixed = 0.; a_ts = 0.; a_residual = 0.; a_tssum = 0. } }
        in
        Array.unsafe_set arr slot (Some s);
        s
  in
  let win_index now = Simtime.to_ns now / window_ns in
  let win_used_s ~now s =
    let idx = win_index now in
    if s.win_id <> idx then begin
      s.win_id <- idx;
      s.win_used <- 0
    end;
    s.win_used
  in
  let throttled_s ~now container s =
    match (Container.attrs container).Attrs.cpu_limit with
    | None -> false
    | Some limit -> float_of_int (win_used_s ~now s) >= limit *. float_of_int window_ns
  in
  let is_idle_ts container =
    let attrs = Container.attrs container in
    match attrs.Attrs.sched_class with
    | Attrs.Timeshare -> Attrs.is_idle_class attrs
    | Attrs.Fixed_share _ -> false
  in
  (* A child's index entry: its container, its state and its run-queue
     counter ref are all fixed for the container's lifetime, so the entry
     is built the first time any parent indexes it and kept on its state. *)
  let kid_of c =
    let s = state_of c in
    match s.as_kid with
    | Some k -> k
    | None ->
        let k = { kc = c; ks = s; kcount = Runq.subtree_count_ref runq c } in
        s.as_kid <- Some k;
        k
  in
  (* Rebuild a node's child index iff its children list changed identity.
     Retry markers are cleared on rebuild: a re-parented child must not
     carry a marker stamped by another parent's round counter. *)
  let refresh_kids nstate node =
    let cs = Container.children node in
    if not (nstate.kids_key == cs) then begin
      let arr =
        match cs with [] -> [||] | c :: _ -> Array.make (List.length cs) (kid_of c)
      in
      List.iteri
        (fun i c ->
          let k = kid_of c in
          k.ks.tried_round <- -1;
          Array.unsafe_set arr i k)
        cs;
      nstate.kids <- arr;
      nstate.kids_key <- cs;
      let n = Array.length arr in
      if n > 0 && Array.length nstate.scratch < n then nstate.scratch <- Array.make n arr.(0)
    end
  in
  (* The pick path is written allocation-free: the per-round counters and
     weight sums live in the node's own scratch fields (never clobbered —
     a pick descends a tree, so no node is re-entered), and the retry
     scan is the mutually recursive [select_round] rather than a local
     closure, which would be allocated on every call. *)
  let rec pick_node ~now ~include_idle node nstate =
    if throttled_s ~now node nstate then None
    else begin
      refresh_kids nstate node;
      let kids = nstate.kids in
      let nkids = Array.length kids in
      let scratch = nstate.scratch in
      let fs = nstate.fs in
      nstate.s_any <- false;
      nstate.s_elig <- 0;
      fs.a_fixed <- 0.;
      fs.a_ts <- 0.;
      (* One pass: children with queued subtree work, their eligibility
         (idle demotion, window throttle) and the weight sums of the
         eligible set — all in child order, as the reference does it. *)
      for i = 0 to nkids - 1 do
        let k = Array.unsafe_get kids i in
        if !(k.kcount) > 0 then begin
          nstate.s_any <- true;
          if
            (include_idle || not (is_idle_ts k.kc)) && not (throttled_s ~now k.kc k.ks)
          then begin
            (match (Container.attrs k.kc).Attrs.sched_class with
            | Attrs.Fixed_share s -> fs.a_fixed <- fs.a_fixed +. s
            | Attrs.Timeshare ->
                fs.a_ts <-
                  fs.a_ts +. float_of_int (max 1 (Container.attrs k.kc).Attrs.priority));
            Array.unsafe_set scratch nstate.s_elig k;
            nstate.s_elig <- nstate.s_elig + 1
          end
        end
      done;
      if not nstate.s_any then Runq.front runq node
      else begin
        let round = nstate.node_round + 1 in
        nstate.node_round <- round;
        (* Start-time fair queueing arrival rule: a child that was not
           eligible in the previous round (fresh container, or waking
           after idleness) starts at the node's virtual clock — it is
           neither penalised for history nor allowed to replay it. *)
        for i = 0 to nstate.s_elig - 1 do
          let s = (Array.unsafe_get scratch i).ks in
          if s.last_round < round - 1 && s.vt < nstate.node_vnow then s.vt <- nstate.node_vnow;
          s.last_round <- round
        done;
        fs.a_residual <- Float.max 0.02 (1. -. fs.a_fixed);
        fs.a_tssum <- Float.max 1e-9 fs.a_ts;
        select_round ~now ~include_idle nstate round
      end
    end
  (* Min-scan over (vt, id) replaces the sort: descend into the lowest-vt
     eligible child; if its whole subtree yields nothing (deep
     throttling), mark it tried and rescan. *)
  and select_round ~now ~include_idle nstate round =
    let scratch = nstate.scratch in
    let best = ref (-1) in
    for i = 0 to nstate.s_elig - 1 do
      let k = Array.unsafe_get scratch i in
      if k.ks.tried_round <> round then
        if !best < 0 then best := i
        else
          let b = Array.unsafe_get scratch !best in
          if
            k.ks.vt < b.ks.vt
            || (k.ks.vt = b.ks.vt && Container.id k.kc < Container.id b.kc)
          then best := i
    done;
    if !best < 0 then None
    else begin
      let k = Array.unsafe_get scratch !best in
      k.ks.tried_round <- round;
      match pick_node ~now ~include_idle k.kc k.ks with
      | Some task ->
          (let fs = nstate.fs in
           k.ks.last_weight <-
             (match (Container.attrs k.kc).Attrs.sched_class with
             | Attrs.Fixed_share s -> Float.max 1e-3 s
             | Attrs.Timeshare ->
                 fs.a_residual
                 *. float_of_int (max 1 (Container.attrs k.kc).Attrs.priority)
                 /. fs.a_tssum));
          nstate.node_vnow <- Float.max nstate.node_vnow k.ks.vt;
          Some task
      | None -> select_round ~now ~include_idle nstate round
    end
  in
  let root_state = state_of root in
  let pick ~now =
    Runq.sync runq;
    match pick_node ~now ~include_idle:false root root_state with
    | Some task -> Some task
    | None -> pick_node ~now ~include_idle:true root root_state
  in
  (* The charge path runs once per slice for the dispatched container, so
     the ancestor state chain is cached flat on that container's own
     state, keyed on the physical identity of the memoized
     [Container.ancestry] array: steady state is a straight walk over a
     cstate array with zero lookups, rebuilt only after a re-parent. *)
  let charge ~container ~now span =
    let span_ns = Simtime.span_to_ns span in
    let s = state_of container in
    let ancestry = Container.ancestry container in
    if not (s.cchain_key == ancestry) then begin
      s.cchain <- Array.map state_of ancestry;
      s.cchain_key <- ancestry
    end;
    let chain = s.cchain in
    let len = Array.length chain in
    for i = 0 to len - 1 do
      let st = Array.unsafe_get chain i in
      ignore (win_used_s ~now st);
      st.win_used <- st.win_used + span_ns;
      if i < len - 1 then
        st.vt <- st.vt +. (float_of_int span_ns /. Float.max 1e-9 st.last_weight)
    done;
    Runq.rotate runq container
  in
  let next_release ~now =
    if Runq.count runq = 0 then None
    else
      match pick ~now with
      | Some _ -> None
      | None ->
          (* Runnable tasks exist but all are throttled: eligibility can
             only change at the next window boundary. *)
          Some (Simtime.of_ns ((win_index now + 1) * window_ns))
  in
  {
    Policy.name = "multilevel";
    enqueue = Runq.enqueue runq;
    dequeue = Runq.dequeue runq;
    requeue = Runq.requeue runq;
    pick;
    charge;
    next_release;
    runnable_count = (fun () -> Runq.count runq);
  }
