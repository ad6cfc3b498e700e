(* Port-indexed early demultiplexer (paper §4.8).

   The reference semantics — the test-only [Spec.Demux_ref.lookup], a
   fold over every listen socket — picks, among the sockets whose port
   matches and whose filter matches the source, the most specific
   filter, breaking ties toward the lowest listen id (earliest bound).  That fold is O(all
   listens) per SYN.

   Here each port owns an array of its listen sockets pre-sorted by
   exactly that key: decreasing specificity, then increasing listen id.
   Lookup walks the port's array and returns the {e first} filter match,
   which is the fold's minimum by construction (the order is total:
   listen ids are unique).  The bucket is rebuilt incrementally — only on
   listen/unlisten, and only for the affected port — so the per-SYN path
   does no sorting and no allocation beyond the [Some] result. *)

type t = { buckets : (int, Socket.listen array) Hashtbl.t }

let create () = { buckets = Hashtbl.create 16 }

(* The demux priority order: most specific first, ties to the earliest
   bound socket, matching the reference fold's choice exactly. *)
let order a b =
  let c = Filter.compare_specificity a.Socket.filter b.Socket.filter in
  if c <> 0 then c else compare a.Socket.listen_id b.Socket.listen_id

let add t l =
  let port = l.Socket.port in
  let bucket =
    match Hashtbl.find_opt t.buckets port with
    | Some existing -> Array.append existing [| l |]
    | None -> [| l |]
  in
  Array.sort order bucket;
  Hashtbl.replace t.buckets port bucket

let remove t l =
  let port = l.Socket.port in
  match Hashtbl.find_opt t.buckets port with
  | None -> ()
  | Some existing ->
      let bucket =
        Array.of_list
          (List.filter
             (fun l' -> l'.Socket.listen_id <> l.Socket.listen_id)
             (Array.to_list existing))
      in
      if Array.length bucket = 0 then Hashtbl.remove t.buckets port
      else Hashtbl.replace t.buckets port bucket

let lookup t ~port ~src =
  match Hashtbl.find t.buckets port with
  | exception Not_found -> None
  | bucket ->
      let n = Array.length bucket in
      let rec scan i =
        if i >= n then None
        else
          let l = bucket.(i) in
          if Filter.matches l.Socket.filter src then Some l else scan (i + 1)
      in
      scan 0

let fold t ~init f =
  Hashtbl.fold (fun _ bucket acc -> Array.fold_left f acc bucket) t.buckets init
