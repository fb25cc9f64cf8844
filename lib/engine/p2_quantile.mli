(** Streaming quantile estimation with the P² algorithm
    (Jain & Chlamtac, CACM 1985).

    Constant memory (five markers), suitable for estimating rank-distribution
    quantiles of a live packet stream inside QVISOR's runtime monitor, where
    retaining samples is not an option. *)

type t

val create : q:float -> t
(** [create ~q] tracks the [q]-quantile, [0. < q < 1.].
    @raise Invalid_argument otherwise. *)

val add : t -> float -> unit
(** Fold one observation into the sketch.  Allocates nothing, apart from
    the one-off sort of the first five samples on the fifth call, so it
    can sit on a per-packet path. *)

val count : t -> int

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] folds [src]'s state into [into].  When [src]
    holds five or fewer observations they are replayed exactly; beyond
    that the five marker heights are replayed with the multiplicities
    implied by the marker positions — an approximation, but a
    deterministic one, so merging the same sketches in the same order
    always yields the same estimate.  Both sketches must track the same
    quantile.
    @raise Invalid_argument if the quantiles differ. *)

val estimate : t -> float
(** Current estimate.  With fewer than five observations this is the exact
    quantile of what has been seen; [nan] when empty. *)
