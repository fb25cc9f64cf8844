(** Injectable scheduler bugs.

    Each fault is a deliberately broken near-PIFO queue discipline used to
    exercise the conformance pipeline end to end: the oracle must flag it,
    and the shrinker must reduce whatever seeded scenario exposed it to a
    few-event reproducer.  They double as regression sentinels for the
    checks themselves — a conformance run that passes a faulty backend is
    a bug in the oracle or the runner, not in the backend. *)

type t =
  | Lifo_ties
      (** equal-rank packets are served in {e reverse} arrival order —
          violates the FIFO tie-break contract of {!Sched.Qdisc} *)
  | Drop_newest
      (** a full queue always tail-drops the arrival, even when it
          out-ranks the current worst — violates the PIFO eviction model *)

val all : t list

val to_string : t -> string
(** The CLI spelling: ["lifo-ties"], ["drop-newest"]. *)

val of_string : string -> (t, string) result

val qdisc : t -> capacity_pkts:int -> Sched.Qdisc.t
(** A PIFO-shaped discipline carrying the fault; name
    ["fault:<to_string>"]. *)
