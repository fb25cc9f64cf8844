(** Deterministic pseudo-random number generation.

    Every stochastic component of the simulator draws from an explicit [t]
    so that experiments are reproducible bit-for-bit from a seed.  The
    generator is splitmix64, which is fast, has a 64-bit state, and passes
    BigCrush; it is more than adequate for workload generation. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] returns a fresh generator.  Two generators created with
    the same seed produce identical streams. *)

val derive : seed:int -> int -> int
(** [derive ~seed i] deterministically maps a root seed and a sub-stream
    index [i >= 0] to an independent non-negative seed.  Parallel jobs use
    this so that job [i] draws from the same stream no matter which domain
    executes it or in what order jobs complete. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Use this to give each traffic source its own stream so that adding a
    source does not perturb the draws of the others. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing [t]. *)

val float : t -> float
(** [float t] is uniform in [\[0, 1)]. *)

val float_range : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)].  Requires [lo <= hi]. *)

val int : t -> int
(** Non-negative uniform int over the full 62-bit range. *)

val int_range : t -> lo:int -> hi:int -> int
(** Uniform integer in the inclusive range [\[lo, hi\]].  Requires
    [lo <= hi]. *)

val bool : t -> bool
(** Fair coin. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean.  Requires
    [mean > 0.]. *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pair_distinct : t -> n:int -> int * int
(** [pair_distinct t ~n] draws two distinct indices uniformly from
    [\[0, n)].  Requires [n >= 2]. *)

module Empirical : sig
  (** Sampling from an empirical CDF given as (value, cumulative
      probability) breakpoints, with linear interpolation between
      breakpoints — the standard way flow-size distributions from the
      pFabric/DCTCP papers are encoded in simulators. *)

  type dist

  val of_points : (float * float) list -> dist
  (** [of_points pts] builds a distribution from [(value, cdf)] pairs.
      The list must be non-empty, values strictly increasing, cdf values
      non-decreasing and ending at 1.0 (the first pair may have any cdf
      >= 0, interpreted as a point mass at the smallest value).
      @raise Invalid_argument if the points are malformed. *)

  val sample : dist -> t -> float
  (** Draw one value. *)

  val mean : dist -> float
  (** Analytic mean of the interpolated distribution (used to size Poisson
      arrival rates for a target load). *)
end
