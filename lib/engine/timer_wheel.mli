(** Timer-wheel event queue: the simulation's one event queue.

    Virtual times quantize to integer ticks ([2^-24] s ≈ 59.6 ns — a
    power of two so tick arithmetic is exact float scaling); events
    within the wheel's horizon ([2^12] ticks, ~244 µs) get O(1) push and near-O(1) pop via a hierarchical
    find-first-set bitmap over the slots, while farther events, +inf
    included, overflow to a binary heap and are merged back by a
    head-to-head comparison at pop time.  Quantization never reorders:
    ticks are monotone in time and within a tick events sort by exact
    (time, push order).  Events pop in non-decreasing time, FIFO among
    equal times (global push order).

    Events live in a struct-of-arrays pool and are named by pool index:
    {!pop_before} returns an index, {!time} reads its time and {!take}
    hands back its payload and frees the index for reuse.  No event
    allocates once the pool has grown to the peak number pending, and a
    taken index keeps nothing of its payload alive. *)

type 'a t

val create : empty:'a -> unit -> 'a t
(** A wheel of [2^12] slots of [2^-24] s each (the slot anchors stay
    L2-resident).  [empty] is what a free pool cell holds in place of a
    payload; it should keep nothing alive. *)

val push : 'a t -> time:float -> 'a -> unit
(** Insert an event to fire at [time].  Times must not precede the last
    popped event's time (which holds for {!Sim}, whose clock never runs
    backwards).
    @raise Invalid_argument if [time] is negative or nan. *)

val pop_before : 'a t -> horizon:float -> int
(** Remove the earliest event if its time is [<= horizon] and return its
    pool index, or [-1] when the queue is empty or its earliest event is
    later.  The index stays reserved for {!time} and {!take}: call
    {!take} on it exactly once. *)

val time : 'a t -> int -> float
(** Time of a popped event, by the index {!pop_before} returned. *)

val take : 'a t -> int -> 'a
(** The payload of a popped event; frees its index. *)

val size : 'a t -> int
(** Events pushed and not yet popped. *)
