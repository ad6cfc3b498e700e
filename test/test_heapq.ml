(* Unit and property tests for Heapq, the binary heap the event-queue
   oracles are built on. *)

let test_empty () =
  let q = Heapq.create () in
  Alcotest.(check bool) "empty" true (Heapq.is_empty q);
  Alcotest.(check int) "length" 0 (Heapq.length q);
  Alcotest.(check bool) "pop empty" true (Heapq.pop_min q = None);
  Alcotest.(check bool) "peek empty" true (Heapq.peek_min_prio q = None)

let test_ordering () =
  let q = Heapq.create () in
  List.iter (fun p -> ignore (Heapq.insert q ~prio:p p)) [ 5; 1; 4; 1; 3; 2 ];
  let drained = ref [] in
  let rec drain () =
    match Heapq.pop_min q with
    | Some (_, v) ->
        drained := v :: !drained;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5 ] (List.rev !drained)

let test_fifo_ties () =
  let q = Heapq.create () in
  ignore (Heapq.insert q ~prio:7 "first");
  ignore (Heapq.insert q ~prio:7 "second");
  ignore (Heapq.insert q ~prio:7 "third");
  let pop () = match Heapq.pop_min q with Some (_, v) -> v | None -> "?" in
  let p1 = pop () in
  let p2 = pop () in
  let p3 = pop () in
  Alcotest.(check (list string))
    "insertion order at equal priority"
    [ "first"; "second"; "third" ]
    [ p1; p2; p3 ]

let test_cancel () =
  let q = Heapq.create () in
  let _a = Heapq.insert q ~prio:1 "a" in
  let b = Heapq.insert q ~prio:2 "b" in
  let _c = Heapq.insert q ~prio:3 "c" in
  Alcotest.(check bool) "cancel live" true (Heapq.cancel q b);
  Alcotest.(check bool) "cancel twice" false (Heapq.cancel q b);
  Alcotest.(check int) "length after cancel" 2 (Heapq.length q);
  Alcotest.(check bool) "a first" true (Heapq.pop_min q = Some (1, "a"));
  Alcotest.(check bool) "b skipped" true (Heapq.pop_min q = Some (3, "c"));
  Alcotest.(check bool) "drained" true (Heapq.pop_min q = None)

let test_cancel_min () =
  let q = Heapq.create () in
  let a = Heapq.insert q ~prio:1 "a" in
  ignore (Heapq.insert q ~prio:2 "b");
  ignore (Heapq.cancel q a);
  Alcotest.(check (option int)) "peek skips dead" (Some 2) (Heapq.peek_min_prio q)

let test_clear () =
  let q = Heapq.create () in
  for i = 0 to 99 do
    ignore (Heapq.insert q ~prio:i i)
  done;
  Heapq.clear q;
  Alcotest.(check bool) "cleared" true (Heapq.is_empty q);
  ignore (Heapq.insert q ~prio:1 1);
  Alcotest.(check int) "usable after clear" 1 (Heapq.length q)

let test_growth () =
  let q = Heapq.create () in
  for i = 1000 downto 1 do
    ignore (Heapq.insert q ~prio:i i)
  done;
  Alcotest.(check int) "all inserted" 1000 (Heapq.length q);
  Alcotest.(check (option int)) "min" (Some 1) (Heapq.peek_min_prio q)

let test_compaction_reclaims_dead () =
  (* Cancelling most of a large heap must shrink physical storage while
     preserving the survivors' pop order. *)
  let q = Heapq.create () in
  let handles = Array.init 2000 (fun i -> Heapq.insert q ~prio:i i) in
  for i = 0 to 1999 do
    if i mod 10 <> 0 then ignore (Heapq.cancel q handles.(i))
  done;
  Alcotest.(check int) "length counts live only" 200 (Heapq.length q);
  Alcotest.(check bool) "dead storage reclaimed" true
    (Heapq.physical_size q <= (2 * Heapq.length q) + 65);
  let rec drain acc =
    match Heapq.pop_min q with Some (_, v) -> drain (v :: acc) | None -> List.rev acc
  in
  Alcotest.(check (list int)) "survivors in order"
    (List.init 200 (fun i -> i * 10))
    (drain [])

(* Model-based property: drive the heap with interleaved inserts, cancels
   and pops against a sorted-list model; pop order, length and the
   physical-storage bound must all hold at every step. *)
let prop_compaction_model =
  QCheck2.Test.make ~name:"heap matches model under insert/cancel/pop" ~count:100
    QCheck2.Gen.(list_size (int_range 1 400) (pair (int_range 0 5) (int_range 0 1000)))
    (fun ops ->
      let q = Heapq.create () in
      (* model: seq -> prio of live elements; seq gives FIFO among ties *)
      let model : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let handles = ref [] in
      let seq = ref 0 in
      List.for_all
        (fun (op, p) ->
          (match op with
          | 0 | 1 | 2 ->
              let id = !seq in
              incr seq;
              let h = Heapq.insert q ~prio:p id in
              Hashtbl.replace model id p;
              handles := (id, h) :: !handles
          | 3 -> (
              (* cancel a pseudo-random live-or-dead handle *)
              match !handles with
              | [] -> ()
              | hs ->
                  let id, h = List.nth hs (p mod List.length hs) in
                  let was_live = Hashtbl.mem model id in
                  let did = Heapq.cancel q h in
                  if did <> was_live then failwith "cancel result mismatch";
                  Hashtbl.remove model id)
          | _ -> (
              let expect =
                Hashtbl.fold
                  (fun id prio best ->
                    match best with
                    | Some (bp, bid) when (bp, bid) <= (prio, id) -> best
                    | _ -> Some (prio, id))
                  model None
              in
              match (Heapq.pop_min q, expect) with
              | None, None -> ()
              | Some (gp, gid), Some (ep, eid) when gp = ep && gid = eid ->
                  Hashtbl.remove model gid
              | _ -> failwith "pop mismatch"));
          Heapq.length q = Hashtbl.length model
          && Heapq.physical_size q <= (2 * Heapq.length q) + 65)
        ops)

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap drains any list sorted" ~count:200
    QCheck2.Gen.(list (int_range (-1000) 1000))
    (fun xs ->
      let q = Heapq.create () in
      List.iter (fun x -> ignore (Heapq.insert q ~prio:x x)) xs;
      let rec drain acc =
        match Heapq.pop_min q with Some (_, v) -> drain (v :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare xs)

let prop_cancel_removes =
  QCheck2.Test.make ~name:"cancelled elements never surface" ~count:200
    QCheck2.Gen.(list (pair (int_range 0 100) bool))
    (fun xs ->
      let q = Heapq.create () in
      let keep = ref [] in
      List.iter
        (fun (p, cancel) ->
          let h = Heapq.insert q ~prio:p (p, cancel) in
          if cancel then ignore (Heapq.cancel q h) else keep := p :: !keep)
        xs;
      let rec drain acc =
        match Heapq.pop_min q with
        | Some (_, (p, cancelled)) ->
            if cancelled then false else drain (p :: acc)
        | None -> List.sort compare acc = List.sort compare !keep
      in
      drain [])

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "min ordering" `Quick test_ordering;
    Alcotest.test_case "FIFO among ties" `Quick test_fifo_ties;
    Alcotest.test_case "cancellation" `Quick test_cancel;
    Alcotest.test_case "cancel at min" `Quick test_cancel_min;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "growth" `Quick test_growth;
    Alcotest.test_case "compaction reclaims dead" `Quick test_compaction_reclaims_dead;
    QCheck_alcotest.to_alcotest prop_compaction_model;
    QCheck_alcotest.to_alcotest prop_heap_sorts;
    QCheck_alcotest.to_alcotest prop_cancel_removes;
  ]
