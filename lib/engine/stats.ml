module Summary = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable total : float;
  }

  let create () = { count = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity; total = 0. }

  let add t x =
    t.count <- t.count + 1;
    t.total <- t.total +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.count
  let mean t = if t.count = 0 then 0. else t.mean
  let variance t = if t.count < 2 then 0. else t.m2 /. float_of_int (t.count - 1)
  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max
  let total t = t.total

  let merge a b =
    if a.count = 0 then { b with count = b.count }
    else if b.count = 0 then { a with count = a.count }
    else begin
      let count = a.count + b.count in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. float_of_int b.count /. float_of_int count) in
      let m2 =
        a.m2 +. b.m2
        +. (delta *. delta *. float_of_int a.count *. float_of_int b.count /. float_of_int count)
      in
      {
        count;
        mean;
        m2;
        min = Stdlib.min a.min b.min;
        max = Stdlib.max a.max b.max;
        total = a.total +. b.total;
      }
    end

  let pp ppf t =
    Format.fprintf ppf "n=%d mean=%.3f sd=%.3f min=%.3f max=%.3f" t.count (mean t) (stddev t)
      t.min t.max
end

module Reservoir = struct
  type t = { capacity : int; rng : Rng.t; mutable seen : int; sample : float array }

  let create ?(capacity = 4096) rng =
    if capacity <= 0 then invalid_arg "Reservoir.create: capacity must be positive";
    { capacity; rng; seen = 0; sample = Array.make capacity 0. }

  let add t x =
    if t.seen < t.capacity then t.sample.(t.seen) <- x
    else begin
      (* Vitter's algorithm R: keep each element with probability k/n. *)
      let j = Rng.int t.rng (t.seen + 1) in
      if j < t.capacity then t.sample.(j) <- x
    end;
    t.seen <- t.seen + 1

  let count t = t.seen

  let sorted t =
    let n = Stdlib.min t.seen t.capacity in
    let a = Array.sub t.sample 0 n in
    Array.sort compare a;
    a

  let percentile t frac =
    if t.seen = 0 then invalid_arg "Reservoir.percentile: empty";
    if frac < 0. || frac > 1. then invalid_arg "Reservoir.percentile: fraction out of range";
    let a = sorted t in
    let n = Array.length a in
    if n = 1 then a.(0)
    else begin
      let pos = frac *. float_of_int (n - 1) in
      let lo = int_of_float (floor pos) in
      let hi = Stdlib.min (lo + 1) (n - 1) in
      let w = pos -. float_of_int lo in
      ((1. -. w) *. a.(lo)) +. (w *. a.(hi))
    end

  let median t = percentile t 0.5
end
