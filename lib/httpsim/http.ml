module Payload = Netsim.Payload

type meta = { path : string; doc : int; keep_alive : bool }

let request_bytes = 250
let header_bytes = 200

(* Workloads replay a URL population millions of times, and the string
   work per message — [Printf.sprintf] for a request line,
   [String.split_on_char] to parse it back, ["200 " ^ path] for the
   response — dominated the simulator's own minor allocation.  All of it
   is memoized per domain (plain globals would race under the parallel
   sweep), keyed by the interned {!Docset} id: a document seen before
   costs one array load, and because the request memo hands back the same
   physical tag string every time, the parse memo's probe hashes an
   interned key.  The memos are lazy and never cleared; they are bounded
   by the documents a domain actually touches, not the docset size, so a
   10^6-document registration does not materialize 10^6 tag strings. *)

type tag_memo = { mutable tags : string array (* doc id -> tag; "" = absent *) }

let memo_key () = Domain.DLS.new_key (fun () -> { tags = Array.make 256 "" })
let http10_tags = memo_key ()
let http11_tags = memo_key ()
let response_tags = memo_key ()

let parse_memo : (string, meta) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

let memo_find memo doc build =
  if doc >= Array.length memo.tags then begin
    let bigger = Array.make (max (doc + 1) (2 * Array.length memo.tags)) "" in
    Array.blit memo.tags 0 bigger 0 (Array.length memo.tags);
    memo.tags <- bigger
  end;
  let tag = Array.unsafe_get memo.tags doc in
  if String.length tag > 0 then tag
  else begin
    let tag = build () in
    memo.tags.(doc) <- tag;
    tag
  end

let request_doc ~now ?(keep_alive = false) ~doc () =
  (* Bound-check before the memo: an id the docset never issued would
     otherwise drive the memo array's growth arithmetic (and its
     unsafe_get) out of bounds. *)
  if doc < 0 || doc >= Docset.size () then
    invalid_arg (Printf.sprintf "Http.request_doc: unknown doc id %d" doc);
  let memo = Domain.DLS.get (if keep_alive then http11_tags else http10_tags) in
  let tag =
    memo_find memo doc (fun () ->
        Printf.sprintf "GET %s HTTP/%s" (Docset.path_of doc)
          (if keep_alive then "1.1" else "1.0"))
  in
  Payload.make ~tag ~bytes:request_bytes now

let request ~now ?keep_alive ~path () = request_doc ~now ?keep_alive ~doc:(Docset.intern path) ()

let meta_of_path ?(keep_alive = false) path = { path; doc = Docset.intern path; keep_alive }

(* [GET <path> <version>]: the path runs from the first space to the last,
   so it may hold spaces itself. *)
let parse_tag tag =
  let last = match String.rindex_opt tag ' ' with Some i -> i | None -> -1 in
  if not (String.starts_with ~prefix:"GET " tag && last > 3) then
    invalid_arg (Printf.sprintf "Http.parse: not a request: %S" tag);
  let path = String.sub tag 4 (last - 4) in
  let version = String.sub tag (last + 1) (String.length tag - last - 1) in
  { path; doc = Docset.intern path; keep_alive = String.equal version "HTTP/1.1" }

let parse payload =
  let tag = payload.Payload.tag in
  let table = Domain.DLS.get parse_memo in
  match Hashtbl.find table tag with
  | meta -> meta
  | exception Not_found ->
      let meta = parse_tag tag in
      Hashtbl.replace table tag meta;
      meta

let response ~now meta ~body_bytes =
  let memo = Domain.DLS.get response_tags in
  let tag = memo_find memo meta.doc (fun () -> "200 " ^ meta.path) in
  Payload.make ~tag ~bytes:(body_bytes + header_bytes) now

let is_dynamic meta =
  let p = meta.path in
  String.length p >= 4 && p.[0] = '/' && p.[1] = 'c' && p.[2] = 'g' && p.[3] = 'i'
