(** Online summary statistics.

    [t] accumulates a stream of float observations with Welford's algorithm
    for numerically stable mean/variance, and optionally retains all samples
    for exact quantiles (the packet-level experiments produce at most a few
    hundred thousand flow completion times, which fit comfortably). *)

type t

val create : ?keep_samples:bool -> unit -> t
(** [keep_samples] defaults to [true]; set it to [false] for unbounded
    streams where only moments are needed. *)

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** Mean of the observations; [nan] when empty. *)

val variance : t -> float
(** Unbiased sample variance; [nan] with fewer than two observations. *)

val min : t -> float
(** [nan] when empty. *)

val max : t -> float
(** [nan] when empty. *)

val sum : t -> float

val quantile : t -> float -> float
(** [quantile t q] is the exact [q]-quantile (nearest-rank with linear
    interpolation) of the retained samples.
    @raise Invalid_argument if [q] is outside [\[0, 1\]] or samples were
    not kept.  Returns [nan] when empty. *)

val merge : t -> t -> t
(** Combine two summaries (samples are concatenated when both kept). *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] folds [src] into [into] in place: samples are
    replayed when [src] kept them, otherwise the moments are combined
    pairwise (Chan et al.). *)

val pp : Format.formatter -> t -> unit
(** One-line [count/mean/p50/p99/max] rendering for logs. *)
