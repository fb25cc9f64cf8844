(** Tenant rank functions.

    A ranker computes the scheduling rank a tenant assigns to its own
    packets — the paper's per-tenant "rank function", evaluated at the
    end-host (or an upstream switch) before packets reach QVISOR's
    pre-processor.  Lower rank means higher priority.

    Each policy ranks on its own natural metric and scale — remaining flow
    bytes for pFabric, microseconds-to-deadline for EDF, virtual start
    times for STFQ…  These scales deliberately clash (the paper's
    Problem 1); reconciling them is the synthesizer's job, not the
    ranker's. *)

type t

val name : t -> string

val tag : t -> now:float -> Packet.t -> int
(** Compute the packet's rank at time [now] and store it into both the
    immutable-in-flight [label] and the scheduling [rank] fields.
    Stateful policies (STFQ) update their per-flow state. *)

val on_dequeue : t -> Packet.t -> unit
(** Feedback hook for policies that track a virtual clock from served
    packets (STFQ).  A no-op for stateless policies. *)

val pfabric : ?unit_bytes:int -> unit -> t
(** Shortest-remaining-flow-first: rank = remaining bytes / [unit_bytes]
    (default 1000, i.e. KB granularity). *)

val edf : ?unit_seconds:float -> ?horizon:float -> unit -> t
(** Earliest-deadline-first: rank = time to deadline in [unit_seconds]
    (default 1e-6: microseconds), clamped to [\[0, horizon\]] (default 10 s
    worth of units).  Packets with no deadline rank at the horizon. *)

val stfq : ?weight:(flow:int -> float) -> unit -> t
(** Start-time fair queueing: rank = per-flow virtual start time in KB
    (bytes scaled by flow weight, over 1000).  [weight]
    defaults to 1.0 for every flow.  The virtual clock advances with
    assigned start tags and, when connected, with {!on_dequeue} feedback. *)

val fifo : unit -> t
(** Rank = packet creation time in microseconds, i.e. global FIFO order
    — the identity policy. *)

val fifo_plus : unit -> t
(** FIFO+ (Clark/Shenker/Zhang): rank by creation time minus the flow's
    accumulated scheduling advantage, which at a single tagging point
    reduces to creation-time order with per-flow age correction
    (microseconds). *)

val lstf : ?unit_seconds:float -> ?line_rate:float -> unit -> t
(** Least-slack-time-first: rank = (deadline - now - remaining
    transmission time at [line_rate], default 1 Gb/s) in [unit_seconds].
    Negative slack clamps to 0. *)

val constant : int -> t
(** Every packet gets the same rank — useful in tests. *)

(** {2 Multi-objective combinators}

    The paper's "multi-objective scheduling algorithms" direction (§5):
    instead of one tenant per objective, a single rank function can blend
    several objectives on the same traffic.  Since component policies rank
    on different scales, each component is declared with the range its raw
    ranks live in and is normalized before combination — the same
    homogenization trick the synthesizer uses across tenants. *)

val weighted : components:(t * (int * int) * float) list -> unit -> t
(** [weighted ~components ()] ranks by the weighted average of the
    components' normalized ranks.  Each component is
    [(ranker, (lo, hi), weight)]: raw ranks are clamped to [\[lo, hi\]]
    and mapped onto [\[0, 1000\]] before averaging with the given
    positive weights.  Dequeue feedback reaches every component, and the
    name is [weighted(<component names>)].
    @raise Invalid_argument on an empty component list, empty ranges, or
    non-positive weights. *)

val lexicographic :
  primary:t * (int * int) ->
  secondary:t * (int * int) ->
  unit ->
  t
(** [lexicographic ~primary ~secondary ()] ranks by the primary objective
    and breaks ties by the secondary: the primary's normalized rank is
    scaled by 64 and the secondary, quantized to 64 levels, is added.
    E.g. minimize FCT first and prefer earlier deadlines among equals.
    The name is [lex(<primary>,<secondary>)]. *)
