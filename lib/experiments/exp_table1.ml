module Simtime = Engine.Simtime
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Usage = Rescont.Usage
module Binding = Rescont.Binding
module Desc_table = Rescont.Desc_table
module Ops = Rescont.Ops

type row = { operation : string; paper_us : float; measured_ns : float }

let time_loop iterations f =
  let start = Sys.time () in
  for i = 0 to iterations - 1 do
    f i
  done;
  let elapsed = Sys.time () -. start in
  elapsed *. 1e9 /. float_of_int iterations

(* Mirrors the paper's Table 1 row by row, against our implementations. *)
let rows ?(iterations = 10_000) () =
  let root = Container.create_root () in
  let parent =
    Container.create ~parent:root ~name:"bench-parent" ~attrs:(Attrs.fixed_share ~share:1.0 ())
      ()
  in
  (* create / destroy: create a batch, then destroy it, timed separately. *)
  let pool = Array.make iterations root in
  let run = Container.run root in
  let create_ns =
    time_loop iterations (fun i -> pool.(i) <- Container.create_detached ~name:"c" run)
  in
  let destroy_ns = time_loop iterations (fun i -> Container.destroy pool.(i)) in
  (* change thread's resource binding: flip a binding between two leaves. *)
  let leaf_a = Container.create ~parent ~name:"leaf-a" () in
  let leaf_b = Container.create ~parent ~name:"leaf-b" () in
  let binding = Binding.create ~now:Simtime.zero leaf_a in
  let rebind_ns =
    time_loop iterations (fun i ->
        Binding.set_resource_binding binding ~now:(Simtime.of_ns i)
          (if i land 1 = 0 then leaf_b else leaf_a))
  in
  (* obtain container resource usage *)
  let table = Desc_table.create () in
  let d = Ops.rc_get_handle table leaf_a in
  let usage_ns = time_loop iterations (fun _ -> ignore (Ops.rc_get_usage table d)) in
  (* set/get container attributes *)
  let attrs_lo = Attrs.timeshare ~priority:5 () and attrs_hi = Attrs.timeshare ~priority:9 () in
  let attrs_ns =
    time_loop iterations (fun i ->
        Ops.rc_set_attrs table d (if i land 1 = 0 then attrs_hi else attrs_lo);
        ignore (Ops.rc_get_attrs table d))
  in
  (* move container between processes (send + receiver close) *)
  let other = Desc_table.create () in
  let move_ns =
    time_loop iterations (fun _ ->
        let d' = Ops.rc_transfer ~src:table ~dst:other d in
        Desc_table.close other d')
  in
  (* obtain handle for existing container *)
  let handle_ns =
    time_loop iterations (fun _ ->
        let d' = Ops.rc_get_handle table leaf_b in
        Desc_table.close table d')
  in
  [
    { operation = "create resource container"; paper_us = 2.36; measured_ns = create_ns };
    { operation = "destroy resource container"; paper_us = 2.10; measured_ns = destroy_ns };
    { operation = "change thread's resource binding"; paper_us = 1.04; measured_ns = rebind_ns };
    { operation = "obtain container resource usage"; paper_us = 2.04; measured_ns = usage_ns };
    { operation = "set/get container attributes"; paper_us = 2.10; measured_ns = attrs_ns };
    { operation = "move container between processes"; paper_us = 3.15; measured_ns = move_ns };
    { operation = "obtain handle for existing container"; paper_us = 1.90;
      measured_ns = handle_ns };
  ]

let table ?iterations () =
  let t =
    Engine.Series.table ~title:"Table 1: cost of resource container primitives"
      ~columns:[ "operation"; "paper (us)"; "this library (ns/op)" ]
  in
  List.iter
    (fun r ->
      Engine.Series.add_row t
        [ r.operation; Printf.sprintf "%.2f" r.paper_us; Printf.sprintf "%.0f" r.measured_ns ])
    (rows ?iterations ());
  t

let max_primitive_vs_request () =
  let worst =
    List.fold_left
      (fun acc (_, c) -> max acc (Simtime.span_to_us_f c))
      0. Ops.Cost.all
  in
  worst /. Simtime.span_to_us_f Httpsim.Costs.nonpersistent_request_total
