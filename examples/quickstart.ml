(* Quickstart: the resource-container API in isolation.

   Builds a small container hierarchy on a simulated machine, runs three
   CPU-bound threads under the prototype's multi-level scheduler — one of
   them sandboxed by a CPU limit — and prints the resulting accounting.

   Run with: dune exec examples/quickstart.exe *)

module Simtime = Engine.Simtime
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Usage = Rescont.Usage
module Machine = Procsim.Machine

let () =
  (* 1. A machine: event engine + root container + the RC scheduler. *)
  let sim = Engine.Sim.create () in
  let root = Container.create_root () in
  let policy = Sched.Multilevel.make ~root () in
  let machine = Machine.create ~sim ~policy:(fun () -> policy) ~root () in

  (* 2. A hierarchy: a guaranteed database, a best-effort web class, and a
        batch job capped at 10% of the machine. *)
  let database =
    Container.create ~parent:root ~name:"database" ~attrs:(Attrs.fixed_share ~share:0.5 ()) ()
  in
  let web =
    Container.create ~parent:root ~name:"web" ~attrs:(Attrs.timeshare ~priority:20 ()) ()
  in
  let batch =
    Container.create ~parent:root ~name:"batch"
      ~attrs:(Attrs.timeshare ~priority:5 ~cpu_limit:0.10 ())
      ()
  in

  (* 3. One CPU-hungry thread per container. *)
  let burn container =
    ignore
      (Machine.spawn machine ~name:(Container.name container) ~container (fun () ->
           let rec loop () =
             Machine.cpu (Simtime.ms 5);
             loop ()
           in
           loop ()))
  in
  List.iter burn [ database; web; batch ];

  (* 4. A thread that rebinds itself halfway through — the paper's central
        move: the binding, not the thread, owns the consumption. *)
  ignore
    (Machine.spawn machine ~name:"migrator" ~container:web (fun () ->
         Machine.cpu (Simtime.ms 50);
         Machine.rebind machine (Machine.self ()) database;
         Machine.cpu (Simtime.ms 50)));

  (* 5. Run two simulated seconds and read the accounting back. *)
  let horizon = Simtime.sec 2 in
  Machine.run_until machine (Simtime.add Simtime.zero horizon);
  Format.printf "After %a of simulated time:@." Simtime.pp_span horizon;
  List.iter
    (fun c ->
      Format.printf "  %-9s guarantee=%.0f%%  consumed=%a (%.1f%% of machine)@."
        (Container.name c)
        (100. *. Container.guaranteed_fraction c)
        Simtime.pp_span
        (Usage.cpu_total (Container.usage c))
        (100. *. Simtime.ratio (Usage.cpu_total (Container.usage c)) horizon))
    [ database; web; batch ];
  Format.printf "  (the batch job's 10%% CPU limit held; the migrator's first 50ms went to@.";
  Format.printf "   'web', its second 50ms to 'database' — bindings, not threads, are charged)@."
