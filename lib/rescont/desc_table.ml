type desc = int

(* Descriptors index a flat array.  Every descriptor at or above [top] is
   free, and every free one below it sits in [free], a binary min-heap, so
   the lowest free descriptor is the heap's minimum when there is one and
   [top] otherwise: O(log n) per install and close, however many
   descriptors a process holds open. *)
type t = {
  mutable slots : Container.t option array; (* descriptor -> container; [None] = closed *)
  mutable top : int; (* high-water mark: no descriptor >= top is open *)
  mutable free : int array; (* min-heap of the closed descriptors below [top] *)
  mutable nfree : int;
  mutable count : int;
}

let create () = { slots = Array.make 16 None; top = 0; free = [||]; nfree = 0; count = 0 }

let heap_push t d =
  if t.nfree = Array.length t.free then begin
    let grown = Array.make (max 8 (2 * t.nfree)) 0 in
    Array.blit t.free 0 grown 0 t.nfree;
    t.free <- grown
  end;
  let h = t.free in
  let i = ref t.nfree in
  t.nfree <- t.nfree + 1;
  while !i > 0 && h.((!i - 1) / 2) > d do
    h.(!i) <- h.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.(!i) <- d

let heap_pop t =
  let h = t.free in
  let min = h.(0) in
  t.nfree <- t.nfree - 1;
  let last = h.(t.nfree) in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= t.nfree then continue := false
    else begin
      let c = if l + 1 < t.nfree && h.(l + 1) < h.(l) then l + 1 else l in
      if h.(c) < last then begin
        h.(!i) <- h.(c);
        i := c
      end
      else continue := false
    end
  done;
  h.(!i) <- last;
  min

let install t container =
  Container.retain container;
  let d =
    if t.nfree > 0 then heap_pop t
    else begin
      let d = t.top in
      t.top <- d + 1;
      if d = Array.length t.slots then begin
        let grown = Array.make (2 * d) None in
        Array.blit t.slots 0 grown 0 d;
        t.slots <- grown
      end;
      d
    end
  in
  t.slots.(d) <- Some container;
  t.count <- t.count + 1;
  d

let lookup_opt t d = if d >= 0 && d < t.top then t.slots.(d) else None
let lookup t d = match lookup_opt t d with Some c -> c | None -> raise Not_found

let close t d =
  match lookup_opt t d with
  | None -> raise Not_found
  | Some c ->
      t.slots.(d) <- None;
      t.count <- t.count - 1;
      heap_push t d;
      Container.release c

let transfer ~src ~dst d =
  let c = lookup src d in
  install dst c

let inherit_all t =
  Array.iter (function Some c -> Container.retain c | None -> ()) t.slots;
  { t with slots = Array.copy t.slots; free = Array.copy t.free }

let descriptors t =
  let acc = ref [] in
  for d = t.top - 1 downto 0 do
    if Option.is_some t.slots.(d) then acc := d :: !acc
  done;
  !acc

let count t = t.count
let close_all t = List.iter (fun d -> close t d) (descriptors t)
