(* Tests for Rescont.Attrs, Usage, Binding, Desc_table, Ops and
   Service_order. *)

module Attrs = Rescont.Attrs
module Usage = Rescont.Usage
module Container = Rescont.Container
module Binding = Rescont.Binding
module Desc_table = Rescont.Desc_table
module Ops = Rescont.Ops
module Order = Rescont.Service_order
module Simtime = Engine.Simtime

(* {1 Attrs} *)

let test_attrs_constructors () =
  let a = Attrs.timeshare ~priority:5 ~cpu_limit:0.5 () in
  Alcotest.(check int) "priority" 5 a.Attrs.priority;
  Alcotest.(check bool) "class" true (a.Attrs.sched_class = Attrs.Timeshare);
  let f = Attrs.fixed_share ~share:0.3 () in
  Alcotest.(check bool) "fixed" true (f.Attrs.sched_class = Attrs.Fixed_share 0.3)

let test_attrs_validation () =
  let invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad share" true (invalid (fun () -> Attrs.fixed_share ~share:1.5 ()));
  Alcotest.(check bool) "bad limit" true
    (invalid (fun () -> Attrs.timeshare ~cpu_limit:(-0.1) ()));
  Alcotest.(check bool) "bad priority" true (invalid (fun () -> Attrs.timeshare ~priority:(-1) ()));
  Alcotest.(check bool) "validate ok" true (Attrs.validate Attrs.default = Ok ())

let test_attrs_helpers () =
  let a = Attrs.timeshare ~priority:0 () in
  Alcotest.(check bool) "idle class" true (Attrs.is_idle_class a);
  Alcotest.(check bool) "non idle" false (Attrs.is_idle_class Attrs.default);
  Alcotest.(check int) "net priority defaults to priority" 10
    (Attrs.effective_net_priority Attrs.default);
  let b = Attrs.with_priority Attrs.default 3 in
  Alcotest.(check int) "with_priority" 3 b.Attrs.priority;
  let c = Attrs.with_cpu_limit Attrs.default (Some 0.2) in
  Alcotest.(check bool) "with_cpu_limit" true (c.Attrs.cpu_limit = Some 0.2)

(* {1 Usage} *)

let test_usage_counters () =
  let u = Usage.create (Usage.create_arena ()) in
  Usage.charge_cpu u ~kernel:false (Simtime.us 10);
  Usage.charge_cpu u ~kernel:true (Simtime.us 4);
  Usage.charge_rx u ~packets:3 ~bytes:1500;
  Usage.charge_tx u ~packets:1 ~bytes:999;
  Usage.charge_memory u 4096;
  Usage.charge_memory u (-1024);
  Usage.incr_kernel_objects u;
  Usage.incr_kernel_objects u;
  Usage.decr_kernel_objects u;
  Alcotest.(check int) "cpu total" 14_000 (Simtime.span_to_ns (Usage.cpu_total u));
  Alcotest.(check int) "cpu kernel" 4_000 (Simtime.span_to_ns (Usage.cpu_kernel u));
  Alcotest.(check int) "rx packets" 3 (Usage.rx_packets u);
  Alcotest.(check int) "rx bytes" 1500 (Usage.rx_bytes u);
  Alcotest.(check int) "tx packets" 1 (Usage.tx_packets u);
  Alcotest.(check int) "memory" 3072 (Usage.memory_bytes u);
  Alcotest.(check int) "kernel objects" 1 (Usage.kernel_objects u)

let test_usage_snapshot_and_reset () =
  let u = Usage.create (Usage.create_arena ()) in
  Usage.charge_cpu u ~kernel:false (Simtime.us 7);
  let snap = Usage.snapshot u in
  Usage.charge_cpu u ~kernel:false (Simtime.us 7);
  Alcotest.(check int) "snapshot immutable" 7_000 (Simtime.span_to_ns snap.Usage.cpu_total);
  Usage.reset u;
  Alcotest.(check int) "reset" 0 (Simtime.span_to_ns (Usage.cpu_total u))

(* {1 Binding} *)

let make_leaves () =
  let root = Container.create_root () in
  let parent = Container.create ~parent:root ~attrs:(Attrs.fixed_share ~share:1.0 ()) () in
  let a = Container.create ~parent ~name:"a" () in
  let b = Container.create ~parent ~name:"b" () in
  let c = Container.create ~parent ~name:"c" () in
  (a, b, c)

let test_binding_create () =
  let a, _, _ = make_leaves () in
  let binding = Binding.create ~now:Simtime.zero a in
  Alcotest.(check int) "thread binding counted" 1 (Container.binding_count a);
  Alcotest.(check bool) "resource binding" true (Binding.resource_binding binding == a);
  Alcotest.(check int) "scheduler set" 1 (Binding.size binding)

let test_binding_rebind () =
  let a, b, _ = make_leaves () in
  let binding = Binding.create ~now:Simtime.zero a in
  Binding.set_resource_binding binding ~now:(Simtime.of_ns 10) b;
  Alcotest.(check bool) "rebound" true (Binding.resource_binding binding == b);
  Alcotest.(check int) "old count dropped" 0 (Container.binding_count a);
  Alcotest.(check int) "new count" 1 (Container.binding_count b);
  Alcotest.(check int) "scheduler set grows" 2 (Binding.size binding);
  (* Most recently used first. *)
  match Binding.scheduler_binding binding with
  | first :: _ -> Alcotest.(check string) "MRU order" "b" (Container.name first)
  | [] -> Alcotest.fail "empty scheduler binding"

let test_binding_prune () =
  let a, b, c = make_leaves () in
  let binding = Binding.create ~now:Simtime.zero a in
  Binding.set_resource_binding binding ~now:(Simtime.of_ns 100) b;
  Binding.set_resource_binding binding ~now:(Simtime.of_ns 200) c;
  Alcotest.(check int) "three entries" 3 (Binding.size binding);
  let removed =
    Binding.prune binding ~now:(Simtime.of_ns 1_000) ~max_age:(Simtime.span_of_ns 500)
  in
  (* a (age 1000) and b (age 900) exceed 500; c is the resource binding and
     is never pruned even though stale. *)
  Alcotest.(check int) "two pruned" 2 removed;
  Alcotest.(check int) "one left" 1 (Binding.size binding);
  let removed2 =
    Binding.prune binding ~now:(Simtime.of_ns 10_000) ~max_age:(Simtime.span_of_ns 1)
  in
  Alcotest.(check int) "resource binding survives" 0 removed2

let test_binding_reset () =
  let a, b, _ = make_leaves () in
  let binding = Binding.create ~now:Simtime.zero a in
  Binding.set_resource_binding binding ~now:(Simtime.of_ns 1) b;
  Binding.reset_scheduler_binding binding ~now:(Simtime.of_ns 2);
  Alcotest.(check int) "reset to singleton" 1 (Binding.size binding);
  Alcotest.(check bool) "keeps resource binding" true
    (List.hd (Binding.scheduler_binding binding) == b)

let test_binding_drop () =
  let a, _, _ = make_leaves () in
  let binding = Binding.create ~now:Simtime.zero a in
  Binding.drop binding;
  Alcotest.(check int) "binding count released" 0 (Container.binding_count a);
  Binding.touch binding ~now:(Simtime.of_ns 5);
  Alcotest.(check int) "touch after drop adds nothing" 0 (Binding.size binding);
  Binding.drop binding (* idempotent *)

let test_binding_touch_refreshes () =
  let a, b, _ = make_leaves () in
  let binding = Binding.create ~now:Simtime.zero a in
  Binding.set_resource_binding binding ~now:(Simtime.of_ns 10) b;
  Binding.set_resource_binding binding ~now:(Simtime.of_ns 20) a;
  Binding.touch binding ~now:(Simtime.of_ns 1_000);
  let removed =
    Binding.prune binding ~now:(Simtime.of_ns 1_100) ~max_age:(Simtime.span_of_ns 500)
  in
  Alcotest.(check int) "b pruned, a touched" 1 removed

(* The set is linked through its entries, so [prune] unlinks expired
   members in place: over 1 000 members it allocates nothing, whether none
   or half of them expire, and the survivors keep their visit order
   (newest member first). *)
let test_binding_prune_in_place () =
  let root = Container.create_root () in
  let parent = Container.create ~parent:root ~attrs:(Attrs.fixed_share ~share:1.0 ()) () in
  let pool =
    Array.init 1_000 (fun i -> Container.create ~parent ~name:(Printf.sprintf "m%d" i) ())
  in
  let binding = Binding.create ~now:Simtime.zero pool.(0) in
  Array.iteri (fun i c -> Binding.set_resource_binding binding ~now:(Simtime.of_ns (10 * i)) c) pool;
  (* Refresh the odd members, so that the even ones are the old half. *)
  Array.iteri
    (fun i c -> if i land 1 = 1 then Binding.set_resource_binding binding ~now:(Simtime.of_ns 100_000) c)
    pool;
  let now = Simtime.of_ns 100_000 in
  let prune_words max_age =
    ignore (Gc.minor_words ());
    let w0 = Gc.minor_words () in
    let removed = Binding.prune binding ~now ~max_age in
    let words = Gc.minor_words () -. w0 in
    (removed, words)
  in
  let visits () =
    let acc = ref [] in
    Binding.iter_scheduler_containers binding (fun c -> acc := Container.id c :: !acc);
    List.rev !acc
  in
  let newest_first keep =
    List.filter_map
      (fun i -> if keep i then Some (Container.id pool.(i)) else None)
      (List.init 1_000 (fun k -> 999 - k))
  in
  let removed, words = prune_words (Simtime.sec 1) in
  Alcotest.(check int) "none expired" 0 removed;
  Alcotest.(check (float 0.)) "no words when none expire" 0. words;
  Alcotest.(check (list int)) "all visited, newest first" (newest_first (fun _ -> true)) (visits ());
  let removed, words = prune_words (Simtime.span_of_ns 50_000) in
  Alcotest.(check int) "the even half expired" 500 removed;
  Alcotest.(check (float 0.)) "no words when half expire" 0. words;
  Alcotest.(check int) "size" 500 (Binding.size binding);
  Alcotest.(check (list int)) "survivors in the same order"
    (newest_first (fun i -> i land 1 = 1))
    (visits ())

(* The list-only scheduler-binding set that the indexed one replaced, kept
   as its lockstep model: every lookup is a scan, and the list order
   (newest member first) is the contract the index must preserve.  It
   differs from the code it was taken from in one place: [touch] on a
   dropped binding is a no-op. *)
module Binding_model = struct
  type entry = { container : Container.t; mutable last_used : Simtime.t }
  type t = { mutable resource : Container.t; mutable sched_set : entry list; mutable live : bool }

  let create ~now container =
    { resource = container; sched_set = [ { container; last_used = now } ]; live = true }

  let find_entry t container =
    List.find_opt (fun e -> Container.id e.container = Container.id container) t.sched_set

  let set_resource_binding t ~now container =
    if not t.live then invalid_arg "Binding: used after drop";
    t.resource <- container;
    match find_entry t container with
    | Some e -> e.last_used <- now
    | None -> t.sched_set <- { container; last_used = now } :: t.sched_set

  let scheduler_binding t =
    List.map
      (fun e -> e.container)
      (List.sort (fun a b -> Simtime.compare b.last_used a.last_used) t.sched_set)

  let visit_order t = List.map (fun e -> e.container) t.sched_set

  let touch t ~now =
    if t.live then
      match find_entry t t.resource with
      | Some e -> e.last_used <- now
      | None -> t.sched_set <- { container = t.resource; last_used = now } :: t.sched_set

  let prune t ~now ~max_age =
    let keep e =
      Container.id e.container = Container.id t.resource
      || Simtime.span_compare (Simtime.diff now e.last_used) max_age <= 0
    in
    let before = List.length t.sched_set in
    t.sched_set <- List.filter keep t.sched_set;
    before - List.length t.sched_set

  let reset_scheduler_binding t ~now =
    t.sched_set <- [ { container = t.resource; last_used = now } ]

  let drop t =
    if t.live then begin
      t.live <- false;
      t.sched_set <- []
    end

  let size t = List.length t.sched_set
end

(* Drive the indexed binding and the list model through the same random
   rebinds, touches, prunes, resets and drops over a small container pool
   with coarse clock steps (so recency ties happen), and demand identical
   observations after every step: the recency-sorted set, the exact visit
   order, the size and prune's count. *)
let prop_binding_matches_list_model =
  QCheck2.Test.make ~name:"indexed binding matches the list model" ~count:200
    QCheck2.Gen.(
      list_size (int_range 1 120) (triple (int_range 0 39) (int_range 0 7) (int_range 0 4)))
    (fun ops ->
      let root = Container.create_root () in
      let parent = Container.create ~parent:root ~attrs:(Attrs.fixed_share ~share:1.0 ()) () in
      let pool =
        Array.init 8 (fun i -> Container.create ~parent ~name:(Printf.sprintf "c%d" i) ())
      in
      let real = Binding.create ~now:Simtime.zero pool.(0) in
      let model = Binding_model.create ~now:Simtime.zero pool.(0) in
      let clock = ref Simtime.zero in
      let ids = List.map Container.id in
      let visits () =
        let acc = ref [] in
        Binding.iter_scheduler_containers real (fun c -> acc := c :: !acc);
        List.rev !acc
      in
      let rejects f = match f () with () -> false | exception Invalid_argument _ -> true in
      List.for_all
        (fun (op, k, dt) ->
          clock := Simtime.add !clock (Simtime.ns (100 * dt));
          let now = !clock in
          let step_agrees =
            if op < 22 then
              rejects (fun () -> Binding.set_resource_binding real ~now pool.(k))
              = rejects (fun () -> Binding_model.set_resource_binding model ~now pool.(k))
            else if op < 32 then begin
              Binding.touch real ~now;
              Binding_model.touch model ~now;
              true
            end
            else if op < 37 then
              let max_age = Simtime.span_of_ns (100 * (dt + k)) in
              Binding.prune real ~now ~max_age = Binding_model.prune model ~now ~max_age
            else if op < 39 then begin
              Binding.reset_scheduler_binding real ~now;
              Binding_model.reset_scheduler_binding model ~now;
              true
            end
            else begin
              Binding.drop real;
              Binding_model.drop model;
              true
            end
          in
          step_agrees
          && ids (Binding.scheduler_binding real) = ids (Binding_model.scheduler_binding model)
          && ids (visits ()) = ids (Binding_model.visit_order model)
          && Binding.size real = Binding_model.size model)
        ops)

(* {1 Desc_table} *)

let test_desc_table_basic () =
  let a, b, _ = make_leaves () in
  let table = Desc_table.create () in
  let da = Desc_table.install table a in
  let db = Desc_table.install table b in
  Alcotest.(check int) "lowest free" 0 da;
  Alcotest.(check int) "next" 1 db;
  Alcotest.(check bool) "lookup" true (Desc_table.lookup table da == a);
  Desc_table.close table da;
  let dc = Desc_table.install table a in
  Alcotest.(check int) "slot reused" 0 dc;
  Alcotest.(check (list int)) "descriptors" [ 0; 1 ] (Desc_table.descriptors table)

let test_desc_table_refcounts () =
  let root = Container.create_root () in
  let c = Container.create ~parent:root ~attrs:(Attrs.timeshare ()) () in
  let table = Desc_table.create () in
  let d = Desc_table.install table c in
  Container.release c (* drop creation ref; descriptor still holds one *);
  Alcotest.(check bool) "alive via descriptor" false (Container.is_destroyed c);
  Desc_table.close table d;
  Alcotest.(check bool) "destroyed on close" true (Container.is_destroyed c)

let test_desc_table_transfer_and_inherit () =
  let a, _, _ = make_leaves () in
  let src = Desc_table.create () in
  let d = Desc_table.install src a in
  let dst = Desc_table.create () in
  let d' = Desc_table.transfer ~src ~dst d in
  Alcotest.(check bool) "receiver sees container" true (Desc_table.lookup dst d' == a);
  Alcotest.(check bool) "sender keeps access (§4.6)" true (Desc_table.lookup src d == a);
  let child = Desc_table.inherit_all src in
  Alcotest.(check int) "inherited" (Desc_table.count src) (Desc_table.count child);
  Alcotest.(check bool) "same container" true (Desc_table.lookup child d == a);
  Desc_table.close_all child;
  Alcotest.(check int) "closed all" 0 (Desc_table.count child)

let test_desc_table_missing () =
  let table = Desc_table.create () in
  Alcotest.(check bool) "lookup_opt none" true (Desc_table.lookup_opt table 5 = None);
  Alcotest.check_raises "lookup raises" Not_found (fun () ->
      ignore (Desc_table.lookup table 5));
  Alcotest.check_raises "close raises" Not_found (fun () -> Desc_table.close table 5)

(* {1 Ops} *)

let test_ops_lifecycle () =
  let root = Container.create_root () in
  let table = Desc_table.create () in
  let d = Ops.rc_create table ~parent:root ~name:"op" ~attrs:(Attrs.timeshare ()) () in
  let c = Desc_table.lookup table d in
  Alcotest.(check int) "only descriptor ref" 1 (Container.ref_count c);
  Ops.rc_set_attrs table d (Attrs.timeshare ~priority:42 ());
  Alcotest.(check int) "attrs set" 42 (Ops.rc_get_attrs table d).Attrs.priority;
  Container.charge_cpu c ~kernel:true (Simtime.us 5);
  let usage = Ops.rc_get_usage table d in
  Alcotest.(check int) "usage visible" 5_000 (Simtime.span_to_ns usage.Usage.cpu_total);
  Ops.rc_release table d;
  Alcotest.(check bool) "destroyed on release" true (Container.is_destroyed c)

let test_ops_bind_thread () =
  let root = Container.create_root () in
  let table = Desc_table.create () in
  let d = Ops.rc_create table ~parent:root () in
  let d2 = Ops.rc_create table ~parent:root () in
  let binding = Binding.create ~now:Simtime.zero (Desc_table.lookup table d) in
  Ops.rc_bind_thread table binding ~now:(Simtime.of_ns 5) d2;
  Alcotest.(check bool) "bound to d2's container" true
    (Binding.resource_binding binding == Desc_table.lookup table d2)

let test_ops_set_parent () =
  let root = Container.create_root () in
  let table = Desc_table.create () in
  let dp = Ops.rc_create table ~parent:root ~attrs:(Attrs.fixed_share ~share:0.5 ()) () in
  let dc = Ops.rc_create table ~parent:root ~attrs:(Attrs.fixed_share ~share:0.2 ()) () in
  Ops.rc_set_parent table dc ~parent:(Some dp);
  Alcotest.(check bool) "reparented" true
    (match Container.parent (Desc_table.lookup table dc) with
    | Some p -> p == Desc_table.lookup table dp
    | None -> false);
  Ops.rc_set_parent table dc ~parent:None;
  Alcotest.(check bool) "no parent" true (Container.parent (Desc_table.lookup table dc) = None)

let test_ops_costs_table () =
  Alcotest.(check int) "seven primitives" 7 (List.length Ops.Cost.all);
  List.iter
    (fun (_, cost) ->
      Alcotest.(check bool) "primitive cheap vs request" true
        (Simtime.span_compare cost Httpsim.Costs.nonpersistent_request_total < 0))
    Ops.Cost.all

(* Model-based property: Desc_table behaves like a Map from the lowest
   free integers to containers under a random op sequence. *)
let prop_desc_table_model =
  let open QCheck2 in
  Test.make ~name:"desc table matches a map model" ~count:100
    Gen.(list_size (int_range 1 60) (int_range 0 2))
    (fun ops ->
      let root = Container.create_root () in
      let parent = Container.create ~parent:root ~attrs:(Attrs.fixed_share ~share:1.0 ()) () in
      let table = Desc_table.create () in
      let model : (int, Container.t) Hashtbl.t = Hashtbl.create 16 in
      let lowest_free () =
        let rec scan d = if Hashtbl.mem model d then scan (d + 1) else d in
        scan 0
      in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | 0 ->
              (* install *)
              let c = Container.create ~parent () in
              let expected = lowest_free () in
              let d = Desc_table.install table c in
              if d <> expected then ok := false;
              Hashtbl.replace model d c
          | 1 -> (
              (* close the smallest open descriptor, if any *)
              match Hashtbl.fold (fun d _ acc -> min d acc) model max_int with
              | d when d <> max_int ->
                  Desc_table.close table d;
                  Hashtbl.remove model d
              | _ -> ())
          | _ ->
              (* consistency check of counts and lookups *)
              if Desc_table.count table <> Hashtbl.length model then ok := false;
              Hashtbl.iter
                (fun d c ->
                  match Desc_table.lookup_opt table d with
                  | Some c' when c' == c -> ()
                  | Some _ | None -> ok := false)
                model)
        ops;
      !ok
      && Desc_table.count table = Hashtbl.length model
      && List.sort compare (Hashtbl.fold (fun d _ acc -> d :: acc) model [])
         = Desc_table.descriptors table)

(* The allocator [Desc_table] used before it kept its closed descriptors
   in a heap: a hash table probed from 0 upward for the lowest free one.
   Kept as the lockstep oracle, without reference counting, which the
   property checks by counting descriptors itself. *)
module Scan_table = struct
  type t = (int, Container.t) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let install t c =
    let rec scan d = if Hashtbl.mem t d then scan (d + 1) else d in
    let d = scan 0 in
    Hashtbl.replace t d c;
    d

  let close t d = if Hashtbl.mem t d then Hashtbl.remove t d else raise Not_found
  let transfer ~src ~dst d = install dst (Hashtbl.find src d)
  let descriptors t = Hashtbl.fold (fun d _ acc -> d :: acc) t [] |> List.sort compare
end

let prop_desc_table_matches_scan =
  QCheck2.Test.make ~name:"desc table matches the scanning allocator" ~count:200
    QCheck2.Gen.(list_size (int_range 1 120) (triple (int_range 0 9) nat nat))
    (fun ops ->
      let root = Container.create_root () in
      let parent = Container.create ~parent:root ~attrs:(Attrs.fixed_share ~share:1.0 ()) () in
      let pool = Array.init 4 (fun _ -> Container.create ~parent ()) in
      let tables = ref [| (Desc_table.create (), Scan_table.create ()) |] in
      let outcome f = match f () with d -> Some d | exception Not_found -> None in
      (* A descriptor that is open about half the time. *)
      let some_desc scan k = k mod (2 * (Hashtbl.length scan + 1)) in
      let agree (real, scan) =
        let ds = Scan_table.descriptors scan in
        Desc_table.descriptors real = ds
        && Desc_table.count real = Hashtbl.length scan
        && List.for_all (fun d -> Desc_table.lookup real d == Hashtbl.find scan d) ds
      in
      let refs_agree () =
        Array.for_all
          (fun c ->
            let held =
              Array.fold_left
                (fun acc (_, scan) ->
                  Hashtbl.fold (fun _ c' n -> if c' == c then n + 1 else n) scan acc)
                0 !tables
            in
            Container.ref_count c = 1 + held)
          pool
      in
      List.for_all
        (fun (op, a, b) ->
          let ntables = Array.length !tables in
          let real, scan = !tables.(a mod ntables) in
          let same =
            match op with
            | 0 | 1 | 2 | 3 ->
                let c = pool.(b mod Array.length pool) in
                Desc_table.install real c = Scan_table.install scan c
            | 4 | 5 | 6 ->
                let d = some_desc scan b in
                outcome (fun () -> Desc_table.close real d)
                = outcome (fun () -> Scan_table.close scan d)
            | 7 | 8 ->
                let real', scan' = !tables.(b mod ntables) in
                let d = some_desc scan (b / 7) in
                outcome (fun () -> Desc_table.transfer ~src:real ~dst:real' d)
                = outcome (fun () -> Scan_table.transfer ~src:scan ~dst:scan' d)
            | _ ->
                if ntables < 4 then
                  tables :=
                    Array.append !tables [| (Desc_table.inherit_all real, Hashtbl.copy scan) |];
                true
          in
          same && Array.for_all agree !tables && refs_agree ())
        ops)

(* {1 Service_order} *)

(* Containers under one root, in creation order, with the given CPU
   priorities; the service order ranks them by that priority. *)
let order_rig prios =
  let root = Container.create_root () in
  let cs =
    List.mapi
      (fun i p ->
        Container.create ~parent:root ~name:(Printf.sprintf "c%d" i)
          ~attrs:(Attrs.timeshare ~priority:p ()) ())
      prios
  in
  (Order.create (), cs)

let by_priority c = (Container.attrs c).Attrs.priority
let order_push o e x = Queue.push x (Order.fifo e); Order.pushed o e

let order_pop o e =
  let q = Order.fifo e in
  ignore (Queue.pop q : int);
  Order.popped o e ~empty:(Queue.is_empty q)

let picked o =
  match Order.best o by_priority with
  | Some e -> Container.name (Order.container e)
  | None -> "none"

let test_order_priority_first () =
  let o, cs = order_rig [ 1; 5 ] in
  let low = Order.add o (List.nth cs 0) (Queue.create ()) in
  let high = Order.add o (List.nth cs 1) (Queue.create ()) in
  order_push o high 1;
  order_pop o high;
  order_push o low 2;
  order_push o high 3;
  (* The low entry was never served and is older; priority still wins. *)
  Alcotest.(check string) "higher priority first" "c1" (picked o);
  order_pop o high;
  Alcotest.(check string) "then the low one" "c0" (picked o);
  Alcotest.(check string) "a min_int rank excludes" "none"
    (match Order.best o (fun _ -> min_int) with Some _ -> "some" | None -> "none")

let test_order_least_recently_served () =
  let o, cs = order_rig [ 5; 5; 5 ] in
  let es = List.map (fun c -> Order.add o c (Queue.create ())) cs in
  let e i = List.nth es i in
  (* Serve c2, then c0, then c1: c2 is now the least recently served. *)
  List.iter (fun i -> order_push o (e i) i; order_pop o (e i)) [ 2; 0; 1 ];
  List.iter (fun i -> order_push o (e i) i) [ 1; 0; 2 ];
  Alcotest.(check string) "least recently served" "c2" (picked o);
  order_pop o (e 2);
  Alcotest.(check string) "next least recent" "c0" (picked o);
  order_pop o (e 0);
  Alcotest.(check string) "most recent last" "c1" (picked o);
  order_pop o (e 1);
  Alcotest.(check string) "all empty" "none" (picked o)

(* The tie the rule settles by creation order: two never-served entries
   at one priority, queued newest first, are served oldest first. *)
let test_order_never_served_oldest_first () =
  let o, cs = order_rig [ 5; 5 ] in
  let older = Order.add o (List.nth cs 0) (Queue.create ()) in
  let newer = Order.add o (List.nth cs 1) (Queue.create ()) in
  order_push o newer 1;
  order_push o older 2;
  Alcotest.(check string) "oldest first" "c0" (picked o);
  order_pop o older;
  Alcotest.(check string) "then the newer" "c1" (picked o)

let test_order_removed_never_picked () =
  let o, cs = order_rig [ 9; 5 ] in
  let gone = Order.add o (List.nth cs 0) (Queue.create ()) in
  let kept = Order.add o (List.nth cs 1) (Queue.create ()) in
  order_push o gone 1;
  order_push o kept 2;
  Order.remove o gone;
  Order.remove o gone (* idempotent *);
  Alcotest.(check int) "one entry left" 1 (Order.length o);
  Alcotest.(check string) "removed entry skipped" "c1" (picked o);
  order_pop o kept;
  Alcotest.(check string) "nothing left" "none" (picked o);
  Alcotest.(check bool) "not found" true
    (match Order.find o (List.nth cs 0) with _ -> false | exception Not_found -> true)

let suite =
  [
    Alcotest.test_case "attrs constructors" `Quick test_attrs_constructors;
    Alcotest.test_case "attrs validation" `Quick test_attrs_validation;
    Alcotest.test_case "attrs helpers" `Quick test_attrs_helpers;
    Alcotest.test_case "usage counters" `Quick test_usage_counters;
    Alcotest.test_case "usage snapshot/reset" `Quick test_usage_snapshot_and_reset;
    Alcotest.test_case "binding create" `Quick test_binding_create;
    Alcotest.test_case "binding rebind" `Quick test_binding_rebind;
    Alcotest.test_case "binding prune" `Quick test_binding_prune;
    Alcotest.test_case "binding reset" `Quick test_binding_reset;
    Alcotest.test_case "binding drop" `Quick test_binding_drop;
    Alcotest.test_case "binding touch" `Quick test_binding_touch_refreshes;
    Alcotest.test_case "binding prune in place" `Quick test_binding_prune_in_place;
    QCheck_alcotest.to_alcotest prop_binding_matches_list_model;
    Alcotest.test_case "desc table basics" `Quick test_desc_table_basic;
    Alcotest.test_case "desc table refcounts" `Quick test_desc_table_refcounts;
    Alcotest.test_case "desc table transfer/inherit" `Quick test_desc_table_transfer_and_inherit;
    Alcotest.test_case "desc table missing" `Quick test_desc_table_missing;
    Alcotest.test_case "ops lifecycle" `Quick test_ops_lifecycle;
    Alcotest.test_case "ops bind thread" `Quick test_ops_bind_thread;
    Alcotest.test_case "ops set parent" `Quick test_ops_set_parent;
    Alcotest.test_case "ops cost table" `Quick test_ops_costs_table;
    Alcotest.test_case "service order: priority first" `Quick test_order_priority_first;
    Alcotest.test_case "service order: least recently served" `Quick
      test_order_least_recently_served;
    Alcotest.test_case "service order: never served, oldest first" `Quick
      test_order_never_served_oldest_first;
    Alcotest.test_case "service order: removed entry never picked" `Quick
      test_order_removed_never_picked;
    QCheck_alcotest.to_alcotest prop_desc_table_model;
    QCheck_alcotest.to_alcotest prop_desc_table_matches_scan;
  ]
