(* The table by container id is for lookup only; picks scan the dense
   [busy] array, whose order is immaterial because [precedes] is total.
   Service ticks are unique, so two entries share a [served] value only
   while both are unserved (-1). *)

type 'q entry = {
  container : Container.t;
  fifo : 'q;
  mutable served : int; (* service tick of the last pop; -1 before the first *)
  mutable busy_ix : int; (* slot in [busy] while the FIFO holds work, else -1 *)
}

type 'q t = {
  entries : (int, 'q entry) Hashtbl.t;
  mutable busy : 'q entry array; (* in [0, nbusy) *)
  mutable nbusy : int;
  mutable tick : int;
}

let create () = { entries = Hashtbl.create 64; busy = [||]; nbusy = 0; tick = 0 }
let find t c = Hashtbl.find t.entries (Container.id c)

let add t c fifo =
  let e = { container = c; fifo; served = -1; busy_ix = -1 } in
  Hashtbl.replace t.entries (Container.id c) e;
  e

let container e = e.container
let fifo e = e.fifo
let length t = Hashtbl.length t.entries
let fold t ~init f = Hashtbl.fold (fun _ e acc -> f acc e) t.entries init

let pushed t e =
  if e.busy_ix < 0 then begin
    if t.nbusy = Array.length t.busy then begin
      let grown = Array.make (max 16 (2 * t.nbusy)) e in
      Array.blit t.busy 0 grown 0 t.nbusy;
      t.busy <- grown
    end;
    e.busy_ix <- t.nbusy;
    t.busy.(t.nbusy) <- e;
    t.nbusy <- t.nbusy + 1
  end

let idle t e =
  if e.busy_ix >= 0 then begin
    let last = t.nbusy - 1 in
    let moved = t.busy.(last) in
    t.busy.(e.busy_ix) <- moved;
    moved.busy_ix <- e.busy_ix;
    e.busy_ix <- -1;
    t.nbusy <- last
  end

let popped t e ~empty =
  t.tick <- t.tick + 1;
  e.served <- t.tick;
  if empty then idle t e

let remove t e =
  idle t e;
  let cid = Container.id e.container in
  match Hashtbl.find t.entries cid with
  | found -> if found == e then Hashtbl.remove t.entries cid
  | exception Not_found -> ()

(* [a] at priority [pa] is served before [b] at priority [pb]. *)
let precedes a pa b pb =
  pa > pb
  || pa = pb
     && (a.served < b.served
        || (a.served = b.served && Container.id a.container < Container.id b.container))

(* Top-level recursion rather than a local closure, which would be
   allocated on every pick. *)
let rec scan t priority i best best_prio =
  if i = t.nbusy then best
  else
    let e = Array.unsafe_get t.busy i in
    let p = priority e.container in
    if p > min_int && (best < 0 || precedes e p (Array.unsafe_get t.busy best) best_prio) then
      scan t priority (i + 1) i p
    else scan t priority (i + 1) best best_prio

let best t priority =
  let i = scan t priority 0 (-1) 0 in
  if i < 0 then None else Some (Array.unsafe_get t.busy i)
