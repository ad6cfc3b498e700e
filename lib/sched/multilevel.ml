(* Incremental reimplementation of the multilevel scheduler.  The policy's
   semantics — virtual-time weighted fair queueing per node, the
   start-time arrival rule, idle-class demotion and windowed CPU limits —
   are specified by [Spec.Multilevel_ref], and the equivalence property test
   holds this module to the exact pick sequence of that reference.

   Only the mechanical cost differs.  The reference re-derives every
   decision from scratch: per pick and per node it allocates filtered
   lists, partitions, folds weights, and sorts by virtual time.  Here a
   pick visits, at each node on its path down the tree, only the children
   whose subtree holds queued tasks: the run queue keeps that set per
   node, updated when a subtree count moves between 0 and 1, and in
   [Container.children] order, so the eligibility pass sums fixed shares
   in the reference's float order.  One allocation-free pass does
   eligibility, weight sums and the arrival rule, then a min-scan
   replaces the sort (re-scanned only in the rare case that a chosen
   subtree turns out to be fully throttled).  A pick costs O(busy
   children x depth), however many idle containers share a parent, as
   the §5.4 server's per-connection containers do. *)

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
  c : Container.t;
  rn : Runq.node; (* the container's node in the policy's run queue *)
  mutable vt : float; (* weight-normalised service received *)
  mutable last_weight : float; (* weight in effect when last picked *)
  mutable win_id : int;
  mutable win_used : int; (* ns consumed by the subtree in current window *)
  mutable last_round : int; (* as a child: last pick round it was eligible *)
  mutable tried : int; (* as a child: the retry serial that last tried it *)
  mutable node_round : int; (* as a parent: pick round counter *)
  mutable node_vnow : float; (* as a parent: virtual clock (max served vt) *)
  mutable cchain : cstate array; (* charge path: states of self..top, cached *)
  mutable cchain_key : Container.t array; (* ancestry array the chain was built from *)
  mutable scratch : cstate array; (* eligible children of the current round *)
  mutable s_elig : int; (* as a parent: eligible-child count, this round *)
  fs : fscratch; (* as a parent: float accumulators, this round *)
}

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
          { c = container; rn = Runq.node runq container; vt = 0.; last_weight = 1.;
            win_id = -1; win_used = 0; last_round = 0; tried = -1; node_round = 0;
            node_vnow = 0.; cchain = [||]; cchain_key = [||]; scratch = [||]; s_elig = 0;
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
  (* Retry markers are stamped with a policy-wide serial, one per round at
     any node, so a child re-parented mid-run can never carry a marker
     that matches its new parent's round. *)
  let serial = ref 0 in
  (* The pick path is written allocation-free: the per-round counters and
     weight sums live in the node's own scratch fields (never clobbered —
     a pick descends a tree, so no node is re-entered), and the retry
     scan is the mutually recursive [select_round] rather than a local
     closure, which would be allocated on every call. *)
  let rec pick_node ~now ~include_idle nstate =
    let node = nstate.c in
    if throttled_s ~now node nstate then None
    else begin
      let nkids = Runq.busy_child_count nstate.rn in
      if nkids = 0 then Runq.front runq node
      else begin
        let kids = Runq.busy_children nstate.rn in
        if Array.length nstate.scratch < nkids then
          nstate.scratch <- Array.make (Array.length kids) nstate;
        let scratch = nstate.scratch in
        let fs = nstate.fs in
        nstate.s_elig <- 0;
        fs.a_fixed <- 0.;
        fs.a_ts <- 0.;
        (* One pass over the children with queued subtree work: their
           eligibility (idle demotion, window throttle) and the weight
           sums of the eligible set — in child order, as the reference
           does it. *)
        for i = 0 to nkids - 1 do
          let kc = Runq.node_container (Array.unsafe_get kids i) in
          let ks = state_of kc in
          if (include_idle || not (is_idle_ts kc)) && not (throttled_s ~now kc ks) then begin
            (match (Container.attrs kc).Attrs.sched_class with
            | Attrs.Fixed_share s -> fs.a_fixed <- fs.a_fixed +. s
            | Attrs.Timeshare ->
                fs.a_ts <- fs.a_ts +. float_of_int (max 1 (Container.attrs kc).Attrs.priority));
            Array.unsafe_set scratch nstate.s_elig ks;
            nstate.s_elig <- nstate.s_elig + 1
          end
        done;
        let round = nstate.node_round + 1 in
        nstate.node_round <- round;
        (* Start-time fair queueing arrival rule: a child that was not
           eligible in the previous round (fresh container, or waking
           after idleness) starts at the node's virtual clock — it is
           neither penalised for history nor allowed to replay it. *)
        for i = 0 to nstate.s_elig - 1 do
          let s = Array.unsafe_get scratch i in
          if s.last_round < round - 1 && s.vt < nstate.node_vnow then s.vt <- nstate.node_vnow;
          s.last_round <- round
        done;
        fs.a_residual <- Float.max 0.02 (1. -. fs.a_fixed);
        fs.a_tssum <- Float.max 1e-9 fs.a_ts;
        incr serial;
        select_round ~now ~include_idle nstate !serial
      end
    end
  (* Min-scan over (vt, id) replaces the sort: descend into the lowest-vt
     eligible child; if its whole subtree yields nothing (deep
     throttling), mark it tried and rescan. *)
  and select_round ~now ~include_idle nstate mark =
    let scratch = nstate.scratch in
    let best = ref (-1) in
    for i = 0 to nstate.s_elig - 1 do
      let k = Array.unsafe_get scratch i in
      if k.tried <> mark then
        if !best < 0 then best := i
        else
          let b = Array.unsafe_get scratch !best in
          if k.vt < b.vt || (k.vt = b.vt && Container.id k.c < Container.id b.c) then best := i
    done;
    if !best < 0 then None
    else begin
      let k = Array.unsafe_get scratch !best in
      k.tried <- mark;
      match pick_node ~now ~include_idle k with
      | Some task ->
          (let fs = nstate.fs in
           k.last_weight <-
             (match (Container.attrs k.c).Attrs.sched_class with
             | Attrs.Fixed_share s -> Float.max 1e-3 s
             | Attrs.Timeshare ->
                 fs.a_residual
                 *. float_of_int (max 1 (Container.attrs k.c).Attrs.priority)
                 /. fs.a_tssum));
          nstate.node_vnow <- Float.max nstate.node_vnow k.vt;
          Some task
      | None -> select_round ~now ~include_idle nstate mark
    end
  in
  let root_state = state_of root in
  let pick ~now =
    Runq.sync runq;
    match pick_node ~now ~include_idle:false root_state with
    | Some task -> Some task
    | None -> pick_node ~now ~include_idle:true root_state
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
