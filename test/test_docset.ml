(* Tests for Httpsim.Docset's flat interning table.

   Docset is process-global, so these run in their own process: the table
   starts at its initial sizes (1 024 ids, 16 KiB of bytes), and the 30
   lockstep runs intern ~14 000 fresh paths and ~2 MB of bytes, crossing
   four table and offsets growths and seven buffer growths.  Every id
   check is relative to [Docset.size ()] when the model was created. *)

module Docset = Httpsim.Docset

(* {1 Lockstep against a model} *)

(* Pairs of distinct paths with equal [Hashtbl.hash], by brute force over
   [/collide/%d]: about five among 10^5 candidates. *)
let collisions =
  lazy
    (let n = 100_000 in
     let path d = Printf.sprintf "/collide/%d" d in
     let keyed = Array.init n (fun d -> (Hashtbl.hash (path d), d)) in
     Array.sort compare keyed;
     let pairs = ref [] in
     for i = 1 to n - 1 do
       let (h, a), (h', b) = (keyed.(i - 1), keyed.(i)) in
       if h = h' then pairs := path a :: path b :: !pairs
     done;
     !pairs)

(* Paths that recur in every run: the empty path, one-byte paths
   (['\000'] and bytes >= 0x80 among them), the colliding pairs, and one
   path longer than Docset's initial 16 KiB buffer. *)
let fixed_pool () =
  ("" :: List.map (fun c -> String.make 1 (Char.chr c)) [ 0; 32; 47; 97; 128; 255 ])
  @ Lazy.force collisions
  @ [ String.make 20_000 'L' ]

(* Paths fresh to run [g]: a bulk of short ones that drives the growths,
   a chain of shared prefixes, raw bytes, and two long ones. *)
let fresh_pool g =
  let pre = Printf.sprintf "/docset/%d/" g in
  List.init 600 (fun i -> pre ^ string_of_int i)
  @ List.init 8 (fun k -> pre ^ "shared" ^ String.make k 'x')
  @ [ pre ^ "\000"; pre ^ "\000\000"; pre ^ "\128\255\000"; pre ^ String.make 3 '\255' ]
  @ [ pre ^ String.make 17_000 'a'; pre ^ String.make 40_000 '\200' ]

type step = Intern of int | Find of int | Path_of of int

let print_step = function
  | Intern i -> Printf.sprintf "i%d" i
  | Find i -> Printf.sprintf "f%d" i
  | Path_of i -> Printf.sprintf "p%d" i

let steps =
  QCheck.(
    make
      ~print:(fun l -> String.concat " " (List.map print_step l))
      Gen.(
        list_size (1000 -- 3000)
          (frequency
             [
               (5, map (fun i -> Intern i) (int_bound 1_000_000));
               (2, map (fun i -> Find i) (int_bound 1_000_000));
               (2, map (fun i -> Path_of i) (int_bound 1_000_000));
             ])))

(* The model: what every path interned since [base] was assigned.  It
   outlives a run, as the table does. *)
type model = {
  base : int;
  ids : (string, int) Hashtbl.t;
  mutable paths : string array;
  mutable len : int;
}

let model =
  lazy { base = Docset.size (); ids = Hashtbl.create 1024; paths = Array.make 16 ""; len = 0 }

let model_intern m path =
  match Hashtbl.find_opt m.ids path with
  | Some id -> id
  | None ->
      if m.len = Array.length m.paths then begin
        let bigger = Array.make (2 * m.len) "" in
        Array.blit m.paths 0 bigger 0 m.len;
        m.paths <- bigger
      end;
      let id = m.base + m.len in
      m.paths.(m.len) <- path;
      m.len <- m.len + 1;
      Hashtbl.replace m.ids path id;
      id

let runs = ref 0

let prop_lockstep =
  QCheck.Test.make ~name:"docset lockstep against a hashtable model" ~count:30 steps
    (fun steps ->
      let m = Lazy.force model in
      incr runs;
      let pool = Array.of_list (fixed_pool () @ fresh_pool !runs) in
      let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
      if Lazy.force collisions = [] then fail "no colliding pair among the candidates";
      List.iter
        (function
          | Intern i ->
              let path = pool.(i mod Array.length pool) in
              let want = model_intern m path and got = Docset.intern path in
              if got <> want then fail "intern %S: id %d, model %d" path got want
          | Find i ->
              let path = pool.(i mod Array.length pool) in
              let want = Option.value (Hashtbl.find_opt m.ids path) ~default:(-1) in
              let got = Docset.find_id path in
              if got <> want then fail "find_id %S: %d, model %d" path got want
          | Path_of i -> (
              (* Mostly interned ids, sometimes just past the end or -1. *)
              let k = i mod (m.len + 4) in
              let id = if k = m.len + 3 then -1 else m.base + k in
              match Docset.path_of id with
              | got ->
                  if k >= m.len then fail "path_of %d: %S for an unissued id" id got
                  else if not (String.equal got m.paths.(k)) then
                    fail "path_of %d: %S, model %S" id got m.paths.(k)
              | exception Invalid_argument _ ->
                  if k < m.len then fail "path_of %d raised on an issued id" id))
        steps;
      if Docset.size () <> m.base + m.len then
        fail "size %d, model %d" (Docset.size ()) (m.base + m.len);
      true)

(* {1 No heap block per path} *)

let test_no_block_per_path () =
  let paths = 100_000 in
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_blocks in
  for i = 0 to paths - 1 do
    ignore (Docset.intern (Printf.sprintf "/live-blocks/%d" i))
  done;
  Gc.full_major ();
  let added = (Gc.stat ()).Gc.live_blocks - before in
  Alcotest.(check bool)
    (Printf.sprintf "1e5 interns add %d live blocks" added)
    true (added <= 8)

(* {1 Concurrent interning} *)

let test_concurrent_interning () =
  let n = 10_000 and writers = 4 in
  let paths = Array.init n (Printf.sprintf "/concurrent/%d") in
  let base = Docset.size () in
  let before = Array.init base Docset.path_of in
  let stop = Atomic.make false in
  (* The reader sweeps every id below [size ()], newest first, while the
     writers grow the table; it keeps the first string it saw for each new
     id. *)
  let reader =
    Domain.spawn (fun () ->
        let seen = Array.make n "" and errors = ref [] in
        let check id =
          match Docset.path_of id with
          | p when id < base ->
              if not (String.equal p before.(id)) then errors := (id, p) :: !errors
          | p ->
              let s = seen.(id - base) in
              if String.length s = 0 then seen.(id - base) <- p
              else if not (String.equal p s) then errors := (id, p) :: !errors
          | exception Invalid_argument _ -> errors := (id, "<raised>") :: !errors
        in
        let sweep () =
          for id = Docset.size () - 1 downto 0 do
            check id
          done
        in
        while not (Atomic.get stop) do
          sweep ()
        done;
        sweep ();
        (seen, !errors))
  in
  let writer w =
    Domain.spawn (fun () ->
        let order = Array.init n Fun.id in
        let rng = Random.State.make [| w |] in
        for i = n - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = order.(i) in
          order.(i) <- order.(j);
          order.(j) <- t
        done;
        let ids = Array.make n (-1) in
        Array.iter (fun i -> ids.(i) <- Docset.intern paths.(i)) order;
        ids)
  in
  let ids = List.map Domain.join (List.init writers writer) in
  Atomic.set stop true;
  let seen, errors = Domain.join reader in
  let first = List.hd ids in
  List.iteri
    (fun w other ->
      Alcotest.(check (array int)) (Printf.sprintf "writer %d agrees" w) first other)
    ids;
  Alcotest.(check int) "size" (base + n) (Docset.size ());
  Alcotest.(check (list int))
    "ids dense" (List.init n (fun i -> base + i))
    (List.sort compare (Array.to_list first));
  Array.iteri
    (fun i id -> Alcotest.(check string) "path_of" paths.(i) (Docset.path_of id))
    first;
  Array.iteri
    (fun k p ->
      if String.length p > 0 then
        Alcotest.(check string) "reader saw the final path" (Docset.path_of (base + k)) p)
    seen;
  Alcotest.(check int) "reader errors" 0 (List.length errors)

let () =
  Alcotest.run "docset"
    [
      ( "docset",
        [
          QCheck_alcotest.to_alcotest prop_lockstep;
          Alcotest.test_case "concurrent interning" `Quick test_concurrent_interning;
          Alcotest.test_case "no heap block per interned path" `Quick test_no_block_per_path;
        ] );
    ]
