(* Tests for Disksim.Disk: service times, scheduling order, fairness,
   blocking reads and usage accounting. *)

module Simtime = Engine.Simtime
module Sim = Engine.Sim
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Usage = Rescont.Usage
module Machine = Procsim.Machine
module Disk = Disksim.Disk

let make_rig () =
  let sim = Sim.create () in
  let root = Container.create_root () in
  let machine = Machine.create ~sim ~policy:(fun () -> Sched.Multilevel.make ~root ()) ~root () in
  let disk = Disk.create ~machine () in
  (sim, root, machine, disk)

let run machine sim span = Machine.run_until machine (Simtime.add (Sim.now sim) span)

let test_service_time () =
  let _, _, _, disk = make_rig () in
  (* 8ms seek + 1MB at 20MB/s = 50ms. *)
  Alcotest.(check int) "1MB" 58_000_000
    (Simtime.span_to_ns (Disk.service_time disk ~bytes:1_000_000));
  Alcotest.(check int) "zero bytes still seeks" 8_000_000
    (Simtime.span_to_ns (Disk.service_time disk ~bytes:0))

let test_completion_and_accounting () =
  let sim, root, machine, disk = make_rig () in
  let c = Container.create ~parent:root ~name:"reader" () in
  let completed_at = ref Simtime.zero in
  Disk.submit disk ~container:c ~bytes:2_000_000 (fun () -> completed_at := Sim.now sim);
  run machine sim (Simtime.sec 1);
  (* 8ms + 100ms transfer. *)
  Alcotest.(check int) "completion time" 108_000_000 (Simtime.to_ns !completed_at);
  Alcotest.(check int) "disk reads charged" 1 (Usage.disk_reads (Container.usage c));
  Alcotest.(check int) "disk bytes charged" 2_000_000 (Usage.disk_bytes (Container.usage c));
  Alcotest.(check int) "disk time charged" 108_000_000
    (Simtime.span_to_ns (Usage.disk_time (Container.usage c)));
  Alcotest.(check int) "no cpu consumed" 0
    (Simtime.span_to_ns (Usage.cpu_total (Container.usage c)));
  Alcotest.(check int) "disk busy" 108_000_000 (Simtime.span_to_ns (Disk.busy_time disk));
  Alcotest.(check int) "completed" 1 (Disk.completed disk)

let test_priority_order () =
  let sim, root, machine, disk = make_rig () in
  let low = Container.create ~parent:root ~name:"low" ~attrs:(Attrs.timeshare ~priority:1 ()) () in
  let high =
    Container.create ~parent:root ~name:"high" ~attrs:(Attrs.timeshare ~priority:50 ()) ()
  in
  let order = ref [] in
  (* Three low requests queued first, then a high one: the disk finishes
     its current transfer, then serves the high request next. *)
  for i = 1 to 3 do
    Disk.submit disk ~container:low ~bytes:100_000 (fun () ->
        order := Printf.sprintf "low%d" i :: !order)
  done;
  Disk.submit disk ~container:high ~bytes:100_000 (fun () -> order := "high" :: !order);
  run machine sim (Simtime.sec 1);
  (match List.rev !order with
  | first :: second :: _ ->
      Alcotest.(check string) "first was already in service" "low1" first;
      Alcotest.(check string) "high jumps the queue" "high" second
  | _ -> Alcotest.fail "not enough completions");
  Alcotest.(check int) "all done" 4 (Disk.completed disk)

let test_equal_priority_round_robin () =
  let sim, root, machine, disk = make_rig () in
  let a = Container.create ~parent:root ~name:"a" () in
  let b = Container.create ~parent:root ~name:"b" () in
  let order = ref [] in
  for i = 1 to 3 do
    Disk.submit disk ~container:a ~bytes:10_000 (fun () ->
        order := Printf.sprintf "a%d" i :: !order);
    Disk.submit disk ~container:b ~bytes:10_000 (fun () ->
        order := Printf.sprintf "b%d" i :: !order)
  done;
  run machine sim (Simtime.sec 1);
  (* Interleaved, not a-a-a then b-b-b. *)
  let seq = List.rev !order in
  Alcotest.(check bool) "interleaved service" true
    (seq <> [ "a1"; "a2"; "a3"; "b1"; "b2"; "b3" ]);
  Alcotest.(check int) "all served" 6 (List.length seq)

let test_blocking_read () =
  let sim, root, machine, disk = make_rig () in
  let c = Container.create ~parent:root ~name:"worker" () in
  let resumed_at = ref Simtime.zero in
  ignore
    (Machine.spawn machine ~name:"reader" ~container:c (fun () ->
         Machine.cpu (Simtime.ms 1);
         Disk.read disk ~container:c ~bytes:1_000_000;
         resumed_at := Sim.now sim;
         Machine.cpu (Simtime.ms 1)));
  run machine sim (Simtime.sec 1);
  (* 1ms of CPU, then 58ms of disk: resumes at 59ms. *)
  Alcotest.(check int) "thread slept across the transfer" 59_000_000
    (Simtime.to_ns !resumed_at);
  Alcotest.(check int) "cpu is only the compute" 2_000_000
    (Simtime.span_to_ns (Usage.cpu_total (Container.usage c)))

let test_disk_overlaps_cpu () =
  let sim, root, machine, disk = make_rig () in
  let io = Container.create ~parent:root ~name:"io" () in
  let cpu = Container.create ~parent:root ~name:"cpu" () in
  ignore
    (Machine.spawn machine ~name:"reader" ~container:io (fun () ->
         Disk.read disk ~container:io ~bytes:2_000_000));
  let burned = ref Simtime.zero in
  ignore
    (Machine.spawn machine ~name:"burner" ~container:cpu (fun () ->
         Machine.cpu (Simtime.ms 100);
         burned := Sim.now sim));
  run machine sim (Simtime.sec 1);
  (* The burner gets the whole CPU while the reader waits on the disk. *)
  Alcotest.(check bool) "cpu work unimpeded by disk" true
    (Simtime.to_ns !burned <= 101_000_000)

(* Two never-served readers at one priority, queued newest first, are
   served in creation order, whatever the hash order of their ids. *)
let test_never_served_in_creation_order () =
  let sim, root, machine, disk = make_rig () in
  let first = Container.create ~parent:root ~name:"first" () in
  let older = Container.create ~parent:root ~name:"older" () in
  let newer = Test_netsim.hashes_before ~buckets:16 ~parent:root older in
  let order = ref [] in
  let read c =
    Disk.submit disk ~container:c ~bytes:10_000 (fun () -> order := Container.name c :: !order)
  in
  (* [first] takes the disk; the other two wait, never served. *)
  read first;
  read newer;
  read older;
  run machine sim (Simtime.sec 1);
  Alcotest.(check (list string)) "oldest never-served first"
    [ "first"; "older"; Container.name newer ] (List.rev !order)

(* A reader destroyed with a read still queued: the read completes and is
   charged to it. *)
let test_destroyed_reader_still_served () =
  let sim, root, machine, disk = make_rig () in
  let busy = Container.create ~parent:root ~name:"busy" () in
  let reader = Container.create ~parent:root ~name:"reader" () in
  let done_ = ref false in
  Disk.submit disk ~container:busy ~bytes:10_000 (fun () -> ());
  Disk.submit disk ~container:reader ~bytes:2_000_000 (fun () -> done_ := true);
  Container.destroy reader;
  run machine sim (Simtime.sec 1);
  Alcotest.(check bool) "read completed" true !done_;
  Alcotest.(check int) "completed" 2 (Disk.completed disk);
  Alcotest.(check int) "disk reads charged" 1 (Usage.disk_reads (Container.usage reader));
  Alcotest.(check int) "disk bytes charged" 2_000_000
    (Usage.disk_bytes (Container.usage reader))

let test_invalid () =
  let _, root, _, disk = make_rig () in
  let c = Container.create ~parent:root () in
  Alcotest.(check bool) "negative size rejected" true
    (try Disk.submit disk ~container:c ~bytes:(-1) (fun () -> ()); false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "service time" `Quick test_service_time;
    Alcotest.test_case "completion and accounting" `Quick test_completion_and_accounting;
    Alcotest.test_case "priority order" `Quick test_priority_order;
    Alcotest.test_case "equal priority round robin" `Quick test_equal_priority_round_robin;
    Alcotest.test_case "blocking read" `Quick test_blocking_read;
    Alcotest.test_case "disk overlaps cpu" `Quick test_disk_overlaps_cpu;
    Alcotest.test_case "invalid sizes" `Quick test_invalid;
    Alcotest.test_case "never-served readers in creation order" `Quick
      test_never_served_in_creation_order;
    Alcotest.test_case "destroyed reader still served" `Quick test_destroyed_reader_still_served;
  ]
