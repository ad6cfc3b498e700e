(* Standalone endtoend driver for profiling: runs the Exp_sweep closed
   loop (the workload behind the endtoend s/simsec gate) long enough for
   a sampling profiler to see the steady state, with none of Bechamel's
   harness in the way.

     dune exec bench/profile.exe -- [rc|lrp|unmodified] [SIMSECONDS]

   Used with gprofng/perf when hunting wall-clock regressions; not part
   of any CI alias. *)

module Simtime = Engine.Simtime

(* --sample: a built-in SIGPROF sampler for hosts where perf/gprofng
   cannot deliver samples.  Every profiling tick records the top OCaml
   frames via [Printexc.get_callstack]; the exit report counts samples
   per frame (a flat, self-ish profile good enough to rank hot paths). *)
let samples : (string, int) Hashtbl.t = Hashtbl.create 256
let total_samples = ref 0

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let inclusive : (string, int) Hashtbl.t = Hashtbl.create 256

let record_sample _ =
  incr total_samples;
  let stack = Printexc.get_callstack 10 in
  match Printexc.backtrace_slots stack with
  | None -> ()
  | Some slots ->
      let seen = Hashtbl.create 8 in
      Array.iteri
        (fun depth slot ->
          match Printexc.Slot.location slot with
          | Some loc when depth >= 1 ->
              (* Frame 0 is this handler; frame 1 is the interrupted code. *)
              let key = Printf.sprintf "%s:%d" loc.filename loc.line_number in
              if depth = 1 then bump samples key;
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.replace seen key ();
                bump inclusive key
              end
          | Some _ | None -> ())
        slots

let report_samples () =
  let dump title tbl n =
    let all = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
    let sorted = List.sort (fun (_, a) (_, b) -> compare b a) all in
    Printf.printf "-- %s (%d samples) --\n" title !total_samples;
    List.iteri (fun i (k, v) -> if i < n then Printf.printf "%6d  %s\n" v k) sorted
  in
  dump "self" samples 40;
  dump "inclusive" inclusive 30

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "rc" in
  let simsec =
    if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 10.
  in
  let sampling = Array.exists (String.equal "--sample") Sys.argv in
  if sampling then begin
    ignore (Sys.signal Sys.sigprof (Sys.Signal_handle record_sample));
    ignore
      (Unix.setitimer Unix.ITIMER_PROF
         { Unix.it_interval = 0.002; it_value = 0.002 })
  end;
  let system =
    match mode with
    | "unmodified" -> Experiments.Harness.Unmodified
    | "lrp" -> Experiments.Harness.Lrp_sys
    | "rc" -> Experiments.Harness.Rc_sys
    | m -> failwith ("profile: unknown mode " ^ m)
  in
  let t0 = Unix.gettimeofday () in
  let r =
    Experiments.Exp_sweep.run
      {
        (Experiments.Exp_sweep.scenario { Experiments.Exp_sweep.system; clients = 16; seed = 1 })
        with
        warmup = Simtime.ms 500;
        windows = [ Simtime.span_scale simsec (Simtime.sec 1) ];
      }
  in
  let wall = Unix.gettimeofday () -. t0 in
  Printf.printf "%s: %d requests, %.3f s wall, %.4f s/simsec\n" mode
    r.Experiments.Exp_sweep.completed wall
    (wall /. (0.5 +. simsec));
  if sampling then report_samples ()
