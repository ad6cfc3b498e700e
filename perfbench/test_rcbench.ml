(* The benchmark's own tests: every workload, replayed at a tiny window,
   passes the output check against perfbench/golden.json both untraced
   and traced (so driving the model with Sim.step changes nothing it
   simulates), and the traced layer buckets account for every sample. *)

module Jsonx = Engine.Jsonx

let tiny = [ ("conn-containers", 600); ("zipf-flash", 200); ("cluster-hold", 100) ]

let rep ?(trace = false) workload window_ms =
  let args =
    [ "./rcbench.exe"; workload; "--seed"; "1"; "--window-ms"; string_of_int window_ms;
      "--golden"; "golden.json" ]
    @ if trace then [ "--trace" ] else []
  in
  let ic = Unix.open_process_args_in "./rcbench.exe" (Array.of_list args) in
  let line = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Jsonx.parse_exn (String.trim line)
  | _ -> Alcotest.failf "rcbench %s failed: %s" workload line

let member k j =
  match Jsonx.member k j with Some v -> v | None -> Alcotest.failf "no %S in result" k

let float k j = Option.get (Jsonx.float_value (member k j))

let check_golden ?trace (workload, window_ms) () =
  let r = rep ?trace workload window_ms in
  Alcotest.(check (option string)) "golden" (Some "match") (Jsonx.string_value (member "golden" r));
  Alcotest.(check bool) "requests completed" true (float "requests" r > 0.)

let layers =
  [ "engine"; "sched"; "rescont"; "procsim"; "netsim"; "httpsim"; "disksim"; "workload";
    "clustersim"; "stdlib" ]

let buckets_cover_samples () =
  let r = rep ~trace:true "conn-containers" 600 in
  let per_layer = member "per_layer" r in
  let samples = member "samples" r in
  let bucketed =
    List.fold_left
      (fun acc l -> acc + Option.get (Jsonx.int_value (member l samples)))
      (Option.get (Jsonx.int_value (member "unclaimed" samples)))
      layers
  in
  let total = float "trace.samples" per_layer in
  Alcotest.(check bool) "sampled" true (total > 0.);
  Alcotest.(check int) "buckets + unclaimed = samples" (int_of_float total) bucketed;
  let host_ns_per_req = 1e9 /. float "req_per_host_s" r in
  let shares =
    List.fold_left
      (fun acc l -> acc +. (float (l ^ ".self_ns_per_req") per_layer /. host_ns_per_req))
      (float "trace.unclaimed_frac" per_layer)
      layers
  in
  Alcotest.(check (float 1e-9)) "layer shares + unclaimed = 1" 1. shares

let () =
  Alcotest.run "perfbench"
    [
      ( "output check",
        List.concat_map
          (fun ((w, _) as t) ->
            [
              Alcotest.test_case (w ^ " untraced") `Quick (check_golden t);
              Alcotest.test_case (w ^ " traced") `Quick (check_golden ~trace:true t);
            ])
          tiny );
      ("trace", [ Alcotest.test_case "layer buckets cover every sample" `Quick buckets_cover_samples ]);
    ]
