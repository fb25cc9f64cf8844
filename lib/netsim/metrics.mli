(** Flow-completion-time bookkeeping, bucketed by flow size the way the
    paper reports it: small flows (0, 100 KB), large flows [1 MB, ∞),
    plus the in-between and the overall population. *)

type bucket = Small | Medium | Large

val bucket_of_size : int -> bucket
(** [Small] below 100 KB, [Large] at or above 1 MB, [Medium] otherwise. *)

type t

val create : unit -> t

val record : t -> Transport.flow_result -> unit

val overall : t -> Engine.Stats.t

val completed : t -> int

val mean_fct_ms : t -> bucket -> float
(** Mean FCT of a bucket in milliseconds ([nan] when the bucket is
    empty) — the y-axis of the paper's Fig. 4. *)

val p99_fct_ms : t -> bucket -> float

val pp_summary : Format.formatter -> t -> unit
