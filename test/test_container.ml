(* Tests for Rescont.Container: hierarchy, lifetime, accounting rules. *)

module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Usage = Rescont.Usage
module Simtime = Engine.Simtime

let fixed share = Attrs.fixed_share ~share ()
let ts priority = Attrs.timeshare ~priority ()

let test_root () =
  let root = Container.create_root () in
  Alcotest.(check bool) "is_root" true (Container.is_root root);
  Alcotest.(check bool) "is_leaf" true (Container.is_leaf root);
  Alcotest.(check int) "depth" 0 (Container.depth root);
  Alcotest.(check (float 1e-9)) "guarantee" 1.0 (Container.guaranteed_fraction root)

let test_create_child () =
  let root = Container.create_root () in
  let child = Container.create ~parent:root ~name:"web" ~attrs:(fixed 0.5) () in
  Alcotest.(check bool) "parent set" true
    (match Container.parent child with Some p -> p == root | None -> false);
  Alcotest.(check int) "root has child" 1 (List.length (Container.children root));
  Alcotest.(check bool) "root no longer leaf" false (Container.is_leaf root);
  Alcotest.(check int) "depth" 1 (Container.depth child);
  Alcotest.(check (float 1e-9)) "guarantee product" 0.5 (Container.guaranteed_fraction child);
  let grand = Container.create ~parent:child ~attrs:(fixed 0.4) () in
  Alcotest.(check (float 1e-9)) "nested guarantee" 0.2 (Container.guaranteed_fraction grand)

let test_timeshare_cannot_have_children () =
  let root = Container.create_root () in
  let tsc = Container.create ~parent:root ~attrs:(ts 10) () in
  let raised =
    try
      ignore (Container.create ~parent:tsc ());
      false
    with Container.Error _ -> true
  in
  Alcotest.(check bool) "timeshare parent rejected" true raised

let test_share_oversubscription () =
  let root = Container.create_root () in
  ignore (Container.create ~parent:root ~attrs:(fixed 0.7) ());
  ignore (Container.create ~parent:root ~attrs:(fixed 0.3) ());
  let raised =
    try
      ignore (Container.create ~parent:root ~attrs:(fixed 0.1) ());
      false
    with Container.Error _ -> true
  in
  Alcotest.(check bool) "over 1.0 rejected" true raised;
  (* Timeshare children are fine: they carry no share. *)
  ignore (Container.create ~parent:root ~attrs:(ts 10) ())

let test_set_parent () =
  let root = Container.create_root () in
  let a = Container.create ~parent:root ~name:"a" ~attrs:(fixed 0.5) () in
  let b = Container.create ~parent:root ~name:"b" ~attrs:(fixed 0.2) () in
  Container.set_parent b (Some a);
  Alcotest.(check bool) "reparented" true
    (match Container.parent b with Some p -> p == a | None -> false);
  Alcotest.(check int) "root children" 1 (List.length (Container.children root));
  Container.set_parent b None;
  Alcotest.(check bool) "detached" true (Container.parent b = None)

let test_set_parent_cycle () =
  let root = Container.create_root () in
  let a = Container.create ~parent:root ~attrs:(fixed 0.5) () in
  let b = Container.create ~parent:a ~attrs:(fixed 0.5) () in
  let raised =
    try
      Container.set_parent a (Some b);
      false
    with Container.Error _ -> true
  in
  Alcotest.(check bool) "cycle rejected" true raised;
  let raised_self =
    try
      Container.set_parent a (Some a);
      false
    with Container.Error _ -> true
  in
  Alcotest.(check bool) "self-parent rejected" true raised_self

let test_destroy_detaches_children () =
  let root = Container.create_root () in
  let parent = Container.create ~parent:root ~attrs:(fixed 0.5) () in
  let child = Container.create ~parent ~attrs:(fixed 0.5) () in
  Container.destroy parent;
  Alcotest.(check bool) "child orphaned (§4.6)" true (Container.parent child = None);
  Alcotest.(check bool) "parent destroyed" true (Container.is_destroyed parent);
  Alcotest.(check bool) "child alive" false (Container.is_destroyed child);
  Alcotest.(check int) "unlinked from root" 0 (List.length (Container.children root))

let test_refcounting () =
  let root = Container.create_root () in
  let c = Container.create ~parent:root ~attrs:(ts 10) () in
  Container.retain c;
  Container.release c;
  Alcotest.(check bool) "still alive with one ref" false (Container.is_destroyed c);
  Container.release c;
  Alcotest.(check bool) "destroyed at zero refs" true (Container.is_destroyed c)

let test_refcount_with_bindings () =
  let root = Container.create_root () in
  let c = Container.create ~parent:root ~attrs:(ts 10) () in
  Container.incr_bindings c;
  Container.release c;
  Alcotest.(check bool) "binding keeps alive" false (Container.is_destroyed c);
  Container.decr_bindings c;
  Alcotest.(check bool) "destroyed when binding drops" true (Container.is_destroyed c)

let test_binding_requires_leaf () =
  let root = Container.create_root () in
  let parent = Container.create ~parent:root ~attrs:(fixed 0.5) () in
  ignore (Container.create ~parent ~attrs:(ts 10) ());
  let raised =
    try
      Container.incr_bindings parent;
      false
    with Container.Error _ -> true
  in
  Alcotest.(check bool) "interior node binding rejected" true raised

let test_children_blocked_under_bound_container () =
  let root = Container.create_root () in
  let parent = Container.create ~parent:root ~attrs:(fixed 0.5) () in
  Container.incr_bindings parent;
  let raised =
    try
      ignore (Container.create ~parent ());
      false
    with Container.Error _ -> true
  in
  Alcotest.(check bool) "no children under a bound container" true raised

let test_use_after_destroy () =
  let root = Container.create_root () in
  let c = Container.create ~parent:root ~attrs:(fixed 0.5) () in
  Container.destroy c;
  let raised =
    try
      ignore (Container.create ~parent:c ());
      false
    with Container.Error _ -> true
  in
  Alcotest.(check bool) "destroyed parent rejected" true raised

let test_charge_propagation () =
  let root = Container.create_root () in
  let mid = Container.create ~parent:root ~attrs:(fixed 0.5) () in
  let leaf = Container.create ~parent:mid ~attrs:(ts 10) () in
  Container.charge_cpu leaf ~kernel:false (Simtime.us 100);
  Container.charge_cpu leaf ~kernel:true (Simtime.us 50);
  Alcotest.(check int) "leaf own usage" 150_000
    (Simtime.span_to_ns (Usage.cpu_total (Container.usage leaf)));
  Alcotest.(check int) "leaf user split" 100_000
    (Simtime.span_to_ns (Usage.cpu_user (Container.usage leaf)));
  Alcotest.(check int) "mid subtree" 150_000 (Simtime.span_to_ns (Container.subtree_cpu mid));
  Alcotest.(check int) "root subtree" 150_000 (Simtime.span_to_ns (Container.subtree_cpu root));
  Alcotest.(check int) "mid own usage untouched" 0
    (Simtime.span_to_ns (Usage.cpu_total (Container.usage mid)))

let test_effective_cpu_limit () =
  let root = Container.create_root () in
  let a = Container.create ~parent:root ~attrs:(Attrs.fixed_share ~share:0.5 ~cpu_limit:0.4 ()) () in
  let b = Container.create ~parent:a ~attrs:(Attrs.fixed_share ~share:0.9 ~cpu_limit:0.8 ()) () in
  let c = Container.create ~parent:b ~attrs:(ts 10) () in
  Alcotest.(check (float 1e-9)) "tightest ancestor limit" 0.4 (Container.effective_cpu_limit c);
  Alcotest.(check (float 1e-9)) "unlimited root" 1.0 (Container.effective_cpu_limit root)

let test_iter_subtree () =
  let root = Container.create_root () in
  let a = Container.create ~parent:root ~attrs:(fixed 0.5) () in
  ignore (Container.create ~parent:a ~attrs:(ts 1) ());
  ignore (Container.create ~parent:a ~attrs:(ts 1) ());
  let count = ref 0 in
  Container.iter_subtree (fun _ -> incr count) root;
  Alcotest.(check int) "pre-order visit count" 4 !count

let test_has_ancestor () =
  let root = Container.create_root () in
  let a = Container.create ~parent:root ~attrs:(fixed 0.5) () in
  let b = Container.create ~parent:a ~attrs:(ts 10) () in
  Alcotest.(check bool) "self" true (Container.has_ancestor b ~ancestor:b);
  Alcotest.(check bool) "parent" true (Container.has_ancestor b ~ancestor:a);
  Alcotest.(check bool) "root" true (Container.has_ancestor b ~ancestor:root);
  Alcotest.(check bool) "not descendant" false (Container.has_ancestor a ~ancestor:b);
  Alcotest.(check bool) "root_of" true (Container.root_of b == root)

let test_set_attrs_rules () =
  let root = Container.create_root () in
  let parent = Container.create ~parent:root ~attrs:(fixed 0.5) () in
  ignore (Container.create ~parent ~attrs:(ts 10) ());
  let raised =
    try
      Container.set_attrs parent (ts 5);
      false
    with Container.Error _ -> true
  in
  Alcotest.(check bool) "cannot become timeshare with children" true raised;
  Container.set_attrs parent (fixed 0.9);
  Alcotest.(check bool) "share update ok" true
    (match (Container.attrs parent).Attrs.sched_class with
    | Attrs.Fixed_share s -> s = 0.9
    | Attrs.Timeshare -> false)

(* {1 Ancestor-chain cache invalidation}

   Charges walk a cached flat ancestor array; these tests pin down that the
   cache is rebuilt whenever the parent chain changes, so charges roll up
   to the *current* ancestors only. *)

let ns_of span = Simtime.span_to_ns span
let cpu c = ns_of (Container.subtree_cpu c)

let test_reparent_redirects_charges () =
  let root_a = Container.create_root () in
  let pa = Container.create ~parent:root_a ~name:"pa" ~attrs:(fixed 0.5) () in
  let pb = Container.create ~parent:root_a ~name:"pb" ~attrs:(fixed 0.5) () in
  let c = Container.create ~parent:pa ~name:"c" ~attrs:(ts 10) () in
  Container.charge_cpu c ~kernel:false (Simtime.us 10);
  Alcotest.(check int) "pa sees first charge" 10_000 (cpu pa);
  Alcotest.(check int) "pb sees nothing yet" 0 (cpu pb);
  Container.set_parent c (Some pb);
  Container.charge_cpu c ~kernel:false (Simtime.us 5);
  Alcotest.(check int) "pa frozen after re-parent" 10_000 (cpu pa);
  Alcotest.(check int) "pb gets post-move charge" 5_000 (cpu pb);
  Alcotest.(check int) "own usage keeps accumulating" 15_000
    (ns_of (Usage.cpu_total (Container.usage c)));
  Alcotest.(check int) "root sees both" 15_000 (cpu root_a);
  Alcotest.(check int) "depth rebuilt" 2 (Container.depth c)

let test_reparent_invalidates_descendants () =
  (* Moving an interior node must invalidate the cached chains of its
     whole subtree, not just its own. *)
  let root = Container.create_root () in
  let a = Container.create ~parent:root ~name:"a" ~attrs:(fixed 0.4) () in
  let b = Container.create ~parent:a ~name:"b" ~attrs:(fixed 0.5) () in
  let leaf = Container.create ~parent:b ~name:"leaf" ~attrs:(ts 10) () in
  (* Prime every cache on the path. *)
  Container.charge_cpu leaf ~kernel:false (Simtime.us 1);
  Alcotest.(check int) "depth before" 3 (Container.depth leaf);
  Alcotest.(check (float 1e-9)) "guarantee before" 0.2 (Container.guaranteed_fraction leaf);
  (* A second top-level tree of the same run: a parentless container. *)
  let root2 = Container.create_detached ~name:"root2" ~attrs:(fixed 1.0) (Container.run root) in
  Container.set_parent b (Some root2);
  Container.charge_cpu leaf ~kernel:false (Simtime.us 7);
  Alcotest.(check int) "old chain frozen at a" 1_000 (cpu a);
  Alcotest.(check int) "old root frozen" 1_000 (cpu root);
  Alcotest.(check int) "new root collects" 7_000 (cpu root2);
  Alcotest.(check int) "grandchild depth rebuilt" 2 (Container.depth leaf);
  Alcotest.(check (float 1e-9)) "guarantee follows new chain" 0.5
    (Container.guaranteed_fraction leaf);
  Alcotest.(check bool) "root_of follows new chain" true (Container.root_of leaf == root2)

let test_destroy_orphans_charging () =
  let root = Container.create_root () in
  let p = Container.create ~parent:root ~name:"p" ~attrs:(fixed 0.5) () in
  let c = Container.create ~parent:p ~name:"c" ~attrs:(ts 10) () in
  Container.charge_cpu c ~kernel:false (Simtime.us 3);
  Container.destroy p;
  Alcotest.(check bool) "orphaned" true (Container.parent c = None);
  Container.charge_cpu c ~kernel:false (Simtime.us 4);
  Alcotest.(check int) "destroyed parent keeps only pre-destroy history" 3_000 (cpu p);
  Alcotest.(check int) "root likewise" 3_000 (cpu root);
  Alcotest.(check int) "orphan accumulates alone" 7_000 (cpu c);
  Alcotest.(check int) "orphan depth" 0 (Container.depth c)

let test_children_insertion_order () =
  let root = Container.create_root () in
  let names = [ "a"; "b"; "c"; "d" ] in
  let kids =
    List.map (fun n -> Container.create ~parent:root ~name:n ~attrs:(ts 10) ()) names
  in
  Alcotest.(check (list string)) "insertion order preserved" names
    (List.map Container.name (Container.children root));
  Container.set_parent (List.nth kids 1) None;
  Alcotest.(check (list string)) "order stable across removal" [ "a"; "c"; "d" ]
    (List.map Container.name (Container.children root));
  let e = Container.create ~parent:root ~name:"e" ~attrs:(ts 10) () in
  ignore e;
  Alcotest.(check (list string)) "append goes last" [ "a"; "c"; "d"; "e" ]
    (List.map Container.name (Container.children root))

let test_topology_generation () =
  let root = Container.create_root () in
  let g0 = Container.topology_generation root in
  let a = Container.create ~parent:root ~attrs:(fixed 0.5) () in
  Alcotest.(check int) "creation does not bump topology" g0
    (Container.topology_generation root);
  Container.set_parent a None;
  Alcotest.(check bool) "detach bumps topology" true (Container.topology_generation root > g0);
  let g1 = Container.topology_generation root in
  Container.destroy a;
  Alcotest.(check bool) "destroy bumps topology" true (Container.topology_generation root > g1)

(* A refused re-parent moves nothing.  [set_parent] once detached first
   and validated after, so a refusal left the container under no parent
   with its charges no longer rolling up. *)
let test_refused_reparent_moves_nothing () =
  let root = Container.create_root () in
  let home = Container.create ~parent:root ~name:"home" ~attrs:(fixed 0.1) () in
  let c = Container.create ~parent:home ~name:"c" ~attrs:(fixed 0.3) () in
  ignore (Container.create ~parent:home ~name:"sib" ~attrs:(ts 10) ());
  let full = Container.create ~parent:root ~name:"full" ~attrs:(fixed 0.5) () in
  ignore (Container.create ~parent:full ~name:"big" ~attrs:(fixed 0.8) ());
  let timeshare = Container.create ~parent:root ~name:"timeshare" ~attrs:(ts 10) () in
  let bound = Container.create ~parent:root ~name:"bound" ~attrs:(fixed 0.1) () in
  Container.incr_bindings bound;
  let names p = List.map Container.name (Container.children p) in
  let seq = Container.adoption_seq c and chain = Container.ancestry c in
  List.iter
    (fun target ->
      let what = Container.name target in
      let gen = Container.topology_generation c and kids = names target in
      let home_cpu = cpu home and root_cpu = cpu root and target_cpu = cpu target in
      (match Container.set_parent c (Some target) with
      | () -> Alcotest.failf "re-parent under %s accepted" what
      | exception Container.Error _ -> ());
      Alcotest.(check bool) (what ^ ": parent kept") true
        (match Container.parent c with Some p -> p == home | None -> false);
      Alcotest.(check (list string)) (what ^ ": old parent's children") [ "c"; "sib" ] (names home);
      Alcotest.(check (list string)) (what ^ ": target's children") kids (names target);
      Alcotest.(check int) (what ^ ": adoption_seq") seq (Container.adoption_seq c);
      Alcotest.(check int) (what ^ ": topology generation") gen (Container.topology_generation c);
      Alcotest.(check bool) (what ^ ": ancestry cache kept") true (Container.ancestry c == chain);
      Container.charge_cpu c ~kernel:false (Simtime.us 1);
      Alcotest.(check int) (what ^ ": rolls up to home") (home_cpu + 1_000) (cpu home);
      Alcotest.(check int) (what ^ ": rolls up to root") (root_cpu + 1_000) (cpu root);
      Alcotest.(check int) (what ^ ": target uncharged") target_cpu (cpu target))
    [ full; timeshare; bound ];
  (* Moving under the current parent does not count the container's own
     share against it: 0.7 + 0.3 fits, and [c] rejoins at the end. *)
  ignore (Container.create ~parent:home ~name:"d" ~attrs:(fixed 0.7) ());
  Container.set_parent c (Some home);
  Alcotest.(check (list string)) "same-parent move goes last" [ "sib"; "d"; "c" ] (names home);
  Alcotest.(check bool) "committed share refolded in the new order" true
    (Container.committed_share home = 0. +. 0. +. 0.7 +. 0.3)

(* Each root starts a run, and a container never changes runs: a
   re-parent from one run's tree into another's is refused before
   anything moves, so both trees, their roll-ups and both runs' topology
   generations stay as they were. *)
let test_reparent_across_runs_refused () =
  let root_a = Container.create_root () and root_b = Container.create_root () in
  let pa = Container.create ~parent:root_a ~name:"pa" ~attrs:(fixed 0.5) () in
  let c = Container.create ~parent:pa ~name:"c" ~attrs:(ts 10) () in
  let pb = Container.create ~parent:root_b ~name:"pb" ~attrs:(fixed 0.5) () in
  ignore (Container.create ~parent:pb ~name:"kid" ~attrs:(ts 10) ());
  Container.charge_cpu c ~kernel:false (Simtime.us 3);
  Container.charge_memory c 100;
  let names p = List.map Container.name (Container.children p) in
  let gen_a = Container.topology_generation root_a
  and gen_b = Container.topology_generation root_b in
  let totals () =
    List.map
      (fun x -> (cpu x, Usage.memory_bytes (Container.subtree_usage x)))
      [ root_a; pa; c; root_b; pb ]
  in
  let before = totals () in
  List.iter
    (fun target ->
      let what = Container.name target in
      (match Container.set_parent c (Some target) with
      | () -> Alcotest.failf "re-parent under %s (another run) accepted" what
      | exception Container.Error _ -> ());
      Alcotest.(check bool) (what ^ ": parent kept") true
        (match Container.parent c with Some p -> p == pa | None -> false);
      Alcotest.(check (list string)) (what ^ ": old parent's children") [ "c" ] (names pa);
      Alcotest.(check (list string)) (what ^ ": root b's children") [ "pb" ] (names root_b);
      Alcotest.(check (list string)) (what ^ ": pb's children") [ "kid" ] (names pb);
      Alcotest.(check int) (what ^ ": run a's topology") gen_a
        (Container.topology_generation root_a);
      Alcotest.(check int) (what ^ ": run b's topology") gen_b
        (Container.topology_generation root_b);
      Alcotest.(check (list (pair int int))) (what ^ ": usage of both trees") before (totals ()))
    [ root_b; pb ];
  Container.charge_cpu c ~kernel:false (Simtime.us 2);
  Alcotest.(check int) "charges still roll up in run a" 5_000 (cpu root_a);
  Alcotest.(check int) "run b still uncharged" 0 (cpu root_b)

(* {1 Child bookkeeping against a list model}

   The sibling list and the committed-share cache against the plain
   list bookkeeping they replaced: children in adoption order by append
   and filter, shares folded over that list on every check.  The shares
   are ones whose float sum depends on order (0.1 +. 0.2 +. 0.3 is not
   0.3 +. 0.2 +. 0.1), and the cache must match the fold to the bit. *)

type op =
  | Create of int * int (* parent, attrs *)
  | Release of int
  | Destroy of int
  | Set_parent of int * int option
  | Set_attrs of int * int

let op_attrs = [| fixed 0.1; fixed 0.2; fixed 0.3; fixed 0.7; ts 10 |]

let print_op = function
  | Create (p, a) -> Printf.sprintf "create under %d attrs %d" p a
  | Release i -> Printf.sprintf "release %d" i
  | Destroy i -> Printf.sprintf "destroy %d" i
  | Set_parent (i, Some p) -> Printf.sprintf "set_parent %d %d" i p
  | Set_parent (i, None) -> Printf.sprintf "set_parent %d none" i
  | Set_attrs (i, a) -> Printf.sprintf "set_attrs %d attrs %d" i a

let gen_op =
  let open QCheck2.Gen in
  let node = int_range 0 11 and attrs = int_range 0 (Array.length op_attrs - 1) in
  frequency
    [
      (4, map2 (fun p a -> Create (p, a)) node attrs);
      (1, map (fun i -> Release i) node);
      (1, map (fun i -> Destroy i) node);
      (3, map2 (fun i p -> Set_parent (i, p)) node (option ~ratio:0.8 node));
      (2, map2 (fun i a -> Set_attrs (i, a)) node attrs);
    ]

type mnode = {
  ix : int;
  real : Container.t;
  mutable mparent : int option;
  mutable kids : int list; (* adoption order *)
  mutable seq : int;
  mutable next_seq : int;
  mutable mattrs : Attrs.t;
  mutable refs : int;
  mutable dead : bool;
}

let share_of attrs =
  match attrs.Attrs.sched_class with Attrs.Fixed_share s -> s | Attrs.Timeshare -> 0.

let prop_children_lockstep =
  QCheck2.Test.make ~name:"sibling list and share cache match a list model" ~count:300
    ~print:QCheck2.Print.(list print_op)
    QCheck2.Gen.(list_size (int_range 1 60) gen_op)
    (fun ops ->
      let fresh ix real attrs =
        { ix; real; mparent = None; kids = []; seq = 0; next_seq = 0; mattrs = attrs; refs = 1;
          dead = false }
      in
      let nodes = ref [| fresh 0 (Container.create_root ()) (fixed 1.0) |] in
      let m i = !nodes.(i mod Array.length !nodes) in
      let name n = Container.name n.real in
      let alive n =
        if n.dead then
          Error (Printf.sprintf "container %s (#%d) is destroyed" (name n) (Container.id n.real))
        else Ok ()
      in
      let committed p ~except =
        List.fold_left
          (fun acc k -> if k = except then acc else acc +. share_of !nodes.(k).mattrs)
          0. p.kids
      in
      let can_adopt p ~except extra =
        match (alive p, p.mattrs.Attrs.sched_class) with
        | (Error _ as e), _ -> e
        | Ok (), Attrs.Timeshare ->
            Error
              (Printf.sprintf
                 "container %s is timeshare-class and cannot have children (prototype restriction)"
                 (name p))
        | Ok (), Attrs.Fixed_share _ ->
            let c = committed p ~except in
            if c +. extra > 1. +. 1e-9 then
              Error
                (Printf.sprintf "fixed shares under %s would exceed 1.0 (%.3f committed + %.3f new)"
                   (name p) c extra)
            else Ok ()
      in
      let detach n =
        Option.iter
          (fun pi ->
            let p = !nodes.(pi) in
            p.kids <- List.filter (fun k -> k <> n.ix) p.kids;
            n.mparent <- None)
          n.mparent
      in
      let adopt p n =
        n.seq <- p.next_seq;
        p.next_seq <- p.next_seq + 1;
        p.kids <- p.kids @ [ n.ix ];
        n.mparent <- Some p.ix
      in
      let destroy n =
        if not n.dead then begin
          List.iter (fun k -> !nodes.(k).mparent <- None) n.kids;
          n.kids <- [];
          detach n;
          n.dead <- true
        end
      in
      let rec on_chain ~candidate i =
        i = candidate
        || match !nodes.(i).mparent with Some p -> on_chain ~candidate p | None -> false
      in
      (* The model's verdict; it applies every accepted step except a
         create's new node, which needs the real container. *)
      let model = function
        | Create (pi, a) -> can_adopt (m pi) ~except:(-1) (share_of op_attrs.(a))
        | Release i ->
            let n = m i in
            if not n.dead then begin
              n.refs <- n.refs - 1;
              if n.refs <= 0 && n.ix <> 0 then destroy n
            end;
            Ok ()
        | Destroy i ->
            destroy (m i);
            Ok ()
        | Set_parent (i, None) -> Result.map (fun () -> detach (m i)) (alive (m i))
        | Set_parent (i, Some j) -> (
            let n = m i and p = m j in
            match (alive n, alive p) with
            | (Error _ as e), _ | Ok (), (Error _ as e) -> e
            | Ok (), Ok () when on_chain ~candidate:n.ix p.ix ->
                Error (Printf.sprintf "re-parenting %s under %s creates a cycle" (name n) (name p))
            | Ok (), Ok () ->
                let except = if n.mparent = Some p.ix then n.ix else -1 in
                Result.map
                  (fun () ->
                    detach n;
                    adopt p n)
                  (can_adopt p ~except (share_of n.mattrs)))
        | Set_attrs (i, a) -> (
            let n = m i and attrs = op_attrs.(a) in
            match (alive n, attrs.Attrs.sched_class, n.mparent) with
            | (Error _ as e), _, _ -> e
            | Ok (), Attrs.Timeshare, _ when n.kids <> [] ->
                Error
                  (Printf.sprintf "container %s has children and must stay fixed-share" (name n))
            | Ok (), Attrs.Fixed_share s, Some pi
              when committed !nodes.(pi) ~except:n.ix +. s > 1. +. 1e-9 ->
                Error (Printf.sprintf "fixed shares under %s would exceed 1.0" (name !nodes.(pi)))
            | Ok (), (Attrs.Fixed_share _ | Attrs.Timeshare), _ ->
                n.mattrs <- attrs;
                Ok ())
      in
      (* The container's result: the new container of a create. *)
      let real op =
        match op with
        | Create (pi, a) ->
            let name = Printf.sprintf "n%d" (Array.length !nodes) in
            Some (Container.create ~parent:(m pi).real ~name ~attrs:op_attrs.(a) ())
        | Release i -> Container.release (m i).real; None
        | Destroy i -> Container.destroy (m i).real; None
        | Set_parent (i, target) ->
            Container.set_parent (m i).real (Option.map (fun j -> (m j).real) target);
            None
        | Set_attrs (i, a) ->
            Container.set_attrs (m i).real op_attrs.(a);
            None
      in
      let bits = Int64.bits_of_float in
      let agree n =
        let kids = List.map (fun k -> !nodes.(k)) n.kids in
        List.map Container.name (Container.children n.real) = List.map name kids
        && Container.is_leaf n.real = (kids = [])
        && Container.adoption_seq n.real = n.seq
        && Container.is_destroyed n.real = n.dead
        && (match (Container.parent n.real, n.mparent) with
           | Some p, Some pi -> p == !nodes.(pi).real
           | None, None -> true
           | Some _, None | None, Some _ -> false)
        && bits (Container.committed_share n.real) = bits (committed n ~except:(-1))
      in
      List.for_all
        (fun op ->
          let expected = model op in
          let got = match real op with c -> Ok c | exception Container.Error msg -> Error msg in
          (match (got, op) with
          | Ok (Some c), Create (pi, a) ->
              let p = m pi and n = fresh (Array.length !nodes) c op_attrs.(a) in
              nodes := Array.append !nodes [| n |];
              adopt p n
          | Ok (Some _), _ | Ok None, _ | Error _, _ -> ());
          let same = Result.map ignore got = expected in
          if not same then
            QCheck2.Test.fail_reportf "%s: container %s, model %s" (print_op op)
              (match got with Ok _ -> "ok" | Error e -> e)
              (match expected with Ok () -> "ok" | Error e -> e);
          Array.for_all
            (fun n ->
              agree n || QCheck2.Test.fail_reportf "after %s: node %d disagrees" (print_op op) n.ix)
            !nodes)
        ops)

(* Property: after an arbitrary sequence of re-parents across a small
   forest, depth/guarantee/ancestry agree with a fresh recursive walk. *)
let prop_chain_matches_recursion =
  QCheck2.Test.make ~name:"cached chain always matches the parent links" ~count:100
    QCheck2.Gen.(list_size (int_range 1 30) (pair (int_range 0 5) (int_range 0 5)))
    (fun moves ->
      let root = Container.create_root () in
      let groups =
        Array.init 3 (fun i ->
            Container.create ~parent:root ~name:(Printf.sprintf "g%d" i)
              ~attrs:(fixed 0.25) ())
      in
      let leaves =
        Array.init 6 (fun i ->
            Container.create ~parent:groups.(i mod 3) ~name:(Printf.sprintf "l%d" i)
              ~attrs:(ts 10) ())
      in
      List.iter
        (fun (li, gi) ->
          match Container.set_parent leaves.(li) (Some groups.(gi mod 3)) with
          | () -> ()
          | exception Container.Error _ -> ())
        moves;
      Array.for_all
        (fun leaf ->
          let rec walk_depth c = match Container.parent c with None -> 0 | Some p -> 1 + walk_depth p in
          let chain = Container.ancestry leaf in
          Container.depth leaf = walk_depth leaf
          && Array.length chain = walk_depth leaf + 1
          && chain.(0) == leaf
          && Container.root_of leaf == root)
        leaves)

(* Property: creating any sequence of fixed shares under one parent never
   exceeds 1.0 committed. *)
let prop_no_oversubscription =
  QCheck2.Test.make ~name:"fixed shares never oversubscribe" ~count:100
    QCheck2.Gen.(list_size (int_range 1 20) (float_range 0.05 0.6))
    (fun shares ->
      let root = Container.create_root () in
      let committed = ref 0. in
      List.iter
        (fun share ->
          match Container.create ~parent:root ~attrs:(fixed share) () with
          | _ -> committed := !committed +. share
          | exception Container.Error _ -> ())
        shares;
      !committed <= 1.0 +. 1e-6)

let suite =
  [
    Alcotest.test_case "root container" `Quick test_root;
    Alcotest.test_case "child creation" `Quick test_create_child;
    Alcotest.test_case "timeshare cannot have children" `Quick test_timeshare_cannot_have_children;
    Alcotest.test_case "share oversubscription" `Quick test_share_oversubscription;
    Alcotest.test_case "set_parent" `Quick test_set_parent;
    Alcotest.test_case "cycles rejected" `Quick test_set_parent_cycle;
    Alcotest.test_case "destroy detaches children" `Quick test_destroy_detaches_children;
    Alcotest.test_case "reference counting" `Quick test_refcounting;
    Alcotest.test_case "bindings keep alive" `Quick test_refcount_with_bindings;
    Alcotest.test_case "leaf-only binding" `Quick test_binding_requires_leaf;
    Alcotest.test_case "no children under bound container" `Quick
      test_children_blocked_under_bound_container;
    Alcotest.test_case "use after destroy" `Quick test_use_after_destroy;
    Alcotest.test_case "charge propagation" `Quick test_charge_propagation;
    Alcotest.test_case "effective cpu limit" `Quick test_effective_cpu_limit;
    Alcotest.test_case "iter_subtree" `Quick test_iter_subtree;
    Alcotest.test_case "has_ancestor" `Quick test_has_ancestor;
    Alcotest.test_case "set_attrs rules" `Quick test_set_attrs_rules;
    Alcotest.test_case "re-parent redirects charges" `Quick test_reparent_redirects_charges;
    Alcotest.test_case "re-parent invalidates descendants" `Quick
      test_reparent_invalidates_descendants;
    Alcotest.test_case "destroy orphans charging" `Quick test_destroy_orphans_charging;
    Alcotest.test_case "children insertion order" `Quick test_children_insertion_order;
    Alcotest.test_case "topology generation" `Quick test_topology_generation;
    QCheck_alcotest.to_alcotest prop_chain_matches_recursion;
    QCheck_alcotest.to_alcotest prop_no_oversubscription;
    Alcotest.test_case "refused re-parent moves nothing" `Quick
      test_refused_reparent_moves_nothing;
    QCheck_alcotest.to_alcotest prop_children_lockstep;
    Alcotest.test_case "re-parent across runs refused" `Quick test_reparent_across_runs_refused;
  ]
