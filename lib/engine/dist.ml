type t =
  | Constant of float
  | Uniform of float * float
  | Exponential of float
  | Pareto of float * float
  | Zipf of { values : float array; cdf : float array }
  | Empirical of { values : float array; cdf : float array }
  | Categorical of {
      values : float array;
      pmf : float array; (* normalized weights, for [mean] and tests *)
      prob : float array; (* alias-table acceptance probabilities *)
      alias : int array;
    }

let constant v = Constant v

let uniform ~lo ~hi =
  if hi < lo then invalid_arg "Dist.uniform: hi < lo";
  Uniform (lo, hi)

let exponential ~mean =
  if mean <= 0. then invalid_arg "Dist.exponential: mean must be positive";
  Exponential mean

let pareto ~shape ~scale =
  if shape <= 0. || scale <= 0. then invalid_arg "Dist.pareto: parameters must be positive";
  Pareto (shape, scale)

let normalized_cdf weights =
  let total = Array.fold_left ( +. ) 0. weights in
  if total <= 0. then invalid_arg "Dist: total weight must be positive";
  let acc = ref 0. in
  Array.map
    (fun w ->
      acc := !acc +. (w /. total);
      !acc)
    weights

let normalized_pmf weights =
  let total = Array.fold_left ( +. ) 0. weights in
  if total <= 0. then invalid_arg "Dist: total weight must be positive";
  Array.map (fun w -> w /. total) weights

(* Walker/Vose alias table: O(n) build, O(1) sample.  Each entry [i]
   either accepts (probability [prob.(i)]) or redirects to [alias.(i)];
   overfull and underfull entries are paired off with two index stacks. *)
let alias_of_pmf pmf =
  let n = Array.length pmf in
  let prob = Array.make n 1. and alias = Array.init n (fun i -> i) in
  let scaled = Array.map (fun p -> p *. float_of_int n) pmf in
  let small = Array.make n 0 and large = Array.make n 0 in
  let ns = ref 0 and nl = ref 0 in
  for i = 0 to n - 1 do
    if scaled.(i) < 1. then begin
      small.(!ns) <- i;
      incr ns
    end
    else begin
      large.(!nl) <- i;
      incr nl
    end
  done;
  while !ns > 0 && !nl > 0 do
    decr ns;
    decr nl;
    let s = small.(!ns) and l = large.(!nl) in
    prob.(s) <- scaled.(s);
    alias.(s) <- l;
    scaled.(l) <- scaled.(l) -. (1. -. scaled.(s));
    if scaled.(l) < 1. then begin
      small.(!ns) <- l;
      incr ns
    end
    else begin
      large.(!nl) <- l;
      incr nl
    end
  done;
  (* Leftovers are 1.0 up to rounding; both loops settle them to accept. *)
  while !nl > 0 do
    decr nl;
    prob.(large.(!nl)) <- 1.
  done;
  while !ns > 0 do
    decr ns;
    prob.(small.(!ns)) <- 1.
  done;
  (prob, alias)

let categorical_alias pairs =
  if Array.length pairs = 0 then invalid_arg "Dist.categorical_alias: empty";
  let weights = Array.map fst pairs and values = Array.map snd pairs in
  let pmf = normalized_pmf weights in
  let prob, alias = alias_of_pmf pmf in
  Categorical { values; pmf; prob; alias }

let zipf_weights ~n ~s =
  if n <= 0 then invalid_arg "Dist.zipf: n must be positive";
  if not (Float.is_finite s) then invalid_arg "Dist.zipf: s must be finite";
  Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** s))

let zipf ~n ~s =
  let weights = zipf_weights ~n ~s in
  let pmf = normalized_pmf weights in
  let prob, alias = alias_of_pmf pmf in
  Categorical { values = Array.init n (fun i -> float_of_int (i + 1)); pmf; prob; alias }

let zipf_cdf ~n ~s =
  let weights = zipf_weights ~n ~s in
  Zipf { values = Array.init n (fun i -> float_of_int (i + 1)); cdf = normalized_cdf weights }

let empirical pairs =
  if Array.length pairs = 0 then invalid_arg "Dist.empirical: empty";
  let weights = Array.map fst pairs and values = Array.map snd pairs in
  Empirical { values; cdf = normalized_cdf weights }

(* Smallest index whose cdf value is >= u. *)
let cdf_index cdf u =
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) >= u then search lo mid else search (mid + 1) hi
  in
  search 0 (Array.length cdf - 1)

let sample_index t rng =
  match t with
  | Zipf { cdf; _ } | Empirical { cdf; _ } -> cdf_index cdf (Rng.float rng 1.)
  | Categorical { prob; alias; _ } ->
      let i = Rng.int rng (Array.length prob) in
      if Rng.float rng 1. < Array.unsafe_get prob i then i else Array.unsafe_get alias i
  | Constant _ | Uniform _ | Exponential _ | Pareto _ ->
      invalid_arg "Dist.sample_index: not a finite categorical distribution"

let sample t rng =
  match t with
  | Constant v -> v
  | Uniform (lo, hi) -> lo +. Rng.float rng (hi -. lo)
  | Exponential mean ->
      let u = 1. -. Rng.float rng 1. in
      -.mean *. log u
  | Pareto (shape, scale) ->
      let u = 1. -. Rng.float rng 1. in
      scale /. (u ** (1. /. shape))
  | Zipf { values; cdf } | Empirical { values; cdf } ->
      values.(cdf_index cdf (Rng.float rng 1.))
  | Categorical { values; _ } -> values.(sample_index t rng)

let sample_int t rng =
  let v = sample t rng in
  if v <= 0. then 0 else int_of_float (Float.round v)

let mean = function
  | Constant v -> v
  | Uniform (lo, hi) -> (lo +. hi) /. 2.
  | Exponential m -> m
  | Pareto (shape, scale) -> if shape <= 1. then infinity else shape *. scale /. (shape -. 1.)
  | Zipf { values; cdf } | Empirical { values; cdf } ->
      let acc = ref 0. and prev = ref 0. in
      Array.iteri
        (fun i c ->
          acc := !acc +. ((c -. !prev) *. values.(i));
          prev := c)
        cdf;
      !acc
  | Categorical { values; pmf; _ } ->
      let acc = ref 0. in
      Array.iteri (fun i p -> acc := !acc +. (p *. values.(i))) pmf;
      !acc

(* The exact per-index probability the alias table implies: index [i] is
   drawn uniformly then accepted with [prob.(i)], and every entry [j]
   aliased to [i] redirects its rejected mass [(1 - prob.(j))].  Tests
   check this reconstruction equals the normalized weights, which is the
   correctness statement for the table build itself. *)
let alias_probabilities = function
  | Categorical { prob; alias; _ } ->
      let n = Array.length prob in
      let inv_n = 1. /. float_of_int n in
      let implied = Array.make n 0. in
      for j = 0 to n - 1 do
        implied.(j) <- implied.(j) +. (prob.(j) *. inv_n);
        implied.(alias.(j)) <- implied.(alias.(j)) +. ((1. -. prob.(j)) *. inv_n)
      done;
      Some implied
  | _ -> None

let pmf = function
  | Categorical { pmf; _ } -> Some (Array.copy pmf)
  | _ -> None
