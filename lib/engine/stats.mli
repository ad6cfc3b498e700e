(** Online statistics used by the experiment harnesses. *)

module Summary : sig
  (** Streaming count/mean/variance/min/max (Welford's algorithm). *)

  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val variance : t -> float
  val min : t -> float
  val max : t -> float
  val total : t -> float

  val merge : t -> t -> t
  (** Combine two summaries as if their streams were concatenated. *)

  val pp : Format.formatter -> t -> unit
end

module Reservoir : sig
  (** Fixed-size uniform sample of a stream, for percentile estimates on
      long runs without unbounded memory. *)

  type t

  val create : ?capacity:int -> Rng.t -> t
  val add : t -> float -> unit
  val count : t -> int

  val percentile : t -> float -> float
  (** [percentile r 0.99] estimates the 99th percentile by linear
      interpolation over the retained sample.  @raise Invalid_argument when
      empty or when the fraction is outside [0, 1]. *)

  val median : t -> float
end
