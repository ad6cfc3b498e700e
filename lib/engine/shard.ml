(* Conservative time-window barrier executor.  See shard.mli for the
   protocol and its determinism argument.  Each window is one
   [Pool.run] batch with one task per lane; the batch's completion is the
   barrier, and the pool's mutex gives the happens-before edges between
   a window's tasks and the exchange that follows it. *)

module Intbox = struct
  type t = { mutable buf : int array; mutable len : int }

  let create () = { buf = Array.make 64 0; len = 0 }

  let ensure t extra =
    let cap = Array.length t.buf in
    if t.len + extra > cap then begin
      let cap' = ref (cap * 2) in
      while t.len + extra > !cap' do
        cap' := !cap' * 2
      done;
      let buf = Array.make !cap' 0 in
      Array.blit t.buf 0 buf 0 t.len;
      t.buf <- buf
    end

  let push2 t a b =
    ensure t 2;
    t.buf.(t.len) <- a;
    t.buf.(t.len + 1) <- b;
    t.len <- t.len + 2

  let push3 t a b c =
    ensure t 3;
    t.buf.(t.len) <- a;
    t.buf.(t.len + 1) <- b;
    t.buf.(t.len + 2) <- c;
    t.len <- t.len + 3

  let length t = t.len

  let get t i =
    if i < 0 || i >= t.len then invalid_arg "Shard.Intbox.get: out of bounds";
    t.buf.(i)

  let clear t = t.len <- 0
end

type t = { shards : int; domains : int }

let create ?domains ~shards () =
  if shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  let domains =
    match domains with
    | Some d ->
        if d < 1 then invalid_arg "Shard.create: domains must be >= 1";
        Stdlib.min d shards
    | None -> Stdlib.min shards (Domain.recommended_domain_count ())
  in
  { shards; domains }

let shards t = t.shards
let domains t = t.domains

let run_windows t ~next ~work ~exchange =
  let horizon = ref 0 in
  (* Lane [l] owns shards l, l+domains, l+2*domains, ...: a static
     assignment, so the shards a task advances never depend on timing.
     The closure is built once per call, so at one domain a window costs
     no allocation. *)
  let lane l =
    let s = ref l in
    while !s < t.shards do
      work !s !horizon;
      s := !s + t.domains
    done
  in
  let rec loop () =
    match next () with
    | None -> ()
    | Some h ->
        horizon := h;
        Pool.run ~domains:t.domains t.domains lane;
        exchange h;
        loop ()
  in
  loop ()
