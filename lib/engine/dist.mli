(** Sampling from the distributions used by the workload generators. *)

type t
(** A distribution over non-negative floats. *)

val constant : float -> t
val uniform : lo:float -> hi:float -> t

val exponential : mean:float -> t
(** Memoryless inter-arrival times; used for open-loop (Poisson) packet
    sources such as the SYN flooders. *)

val pareto : shape:float -> scale:float -> t
(** Heavy-tailed; Web object sizes are classically Pareto-distributed. *)

val zipf : n:int -> s:float -> t
(** Zipf over ranks [1..n] with exponent [s] (returned as a float rank);
    used for document popularity.  Sampled by Walker's alias method: O(n)
    one-time build, O(1) per sample — a 10^6-document popularity draw
    costs the same as a 4-document one.
    @raise Invalid_argument if [n <= 0] or [s] is not finite. *)

val zipf_cdf : n:int -> s:float -> t
(** The same distribution sampled by inverting the precomputed CDF
    (O(log n) binary search).  Kept as the executable spec the alias
    sampler is tested against. *)

val categorical_alias : (float * float) array -> t
(** [categorical_alias [| (w1, v1); ... |]]: same distribution as
    {!empirical}, but sampled by the alias method (O(1) per draw instead
    of O(log n)).  Note the two consume the random stream differently.
    @raise Invalid_argument on empty or non-positive total weight. *)

val empirical : (float * float) array -> t
(** [empirical [| (w1, v1); ... |]] samples value [vi] with probability
    proportional to weight [wi], by CDF inversion.  @raise
    Invalid_argument on empty or non-positive total weight. *)

val sample : t -> Rng.t -> float
val sample_int : t -> Rng.t -> int
(** [sample_int] rounds the sample to the nearest integer, clamped at 0. *)

val sample_index : t -> Rng.t -> int
(** For finite categorical distributions ({!zipf}, {!zipf_cdf},
    {!empirical}, {!categorical_alias}): the {e index} of the sampled
    entry (0-based), skipping the value array — what doc-id mixes want.
    @raise Invalid_argument for continuous distributions. *)

val mean : t -> float
(** Analytic mean where available; for the finite categorical
    distributions the exact mean is computed. *)

(** {1 Introspection for tests} *)

val alias_probabilities : t -> float array option
(** For alias-sampled distributions: the exact per-index probability
    implied by the built table (acceptance mass plus redirected rejection
    mass).  Agreement with the normalized weights is the table-build
    correctness property. *)

val pmf : t -> float array option
(** For alias-sampled distributions: the normalized weight vector. *)
