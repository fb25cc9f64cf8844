(** Discrete-event simulation driver.

    A simulation owns a virtual clock and an event queue of thunks (a
    {!Timer_wheel} whose payload is the thunk itself).  Components
    schedule callbacks at absolute or relative virtual times; [run]
    drains the queue in time order.  Events scheduled for the same
    instant fire in scheduling order.  A fire-and-forget event allocates
    nothing in the queue; a cancellable one allocates its handle and a
    wrapper thunk that checks it. *)

type t

type handle
(** Cancellation handle for a scheduled event.

    A handle is only worth paying for when the event may be {!cancel}ed
    before it fires — retransmission timeouts disarmed by an ACK
    ([Netsim.Transport]'s RTO), watchdogs, leases.  Fire-and-forget events
    (per-packet transmit/arrival, open-loop arrival processes, periodic
    ticks) should use {!schedule_at_} / {!schedule_after_}, which skip the
    handle allocation entirely. *)

val create : ?profiler:Span.t -> unit -> t
(** [profiler] (default: off) wraps every {!run} and {!advance} call in
    a ["sim.run"] span. *)

val now : t -> float
(** Current virtual time, in seconds.  Starts at [0.]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** [schedule_at t ~time f] runs [f] when the clock reaches [time].
    @raise Invalid_argument if [time] is in the past or nan. *)

val schedule_after : t -> delay:float -> (unit -> unit) -> handle
(** [schedule_after t ~delay f] is [schedule_at t ~time:(now t +. delay) f].
    @raise Invalid_argument if [delay] is negative or nan. *)

val schedule_at_ : t -> time:float -> (unit -> unit) -> unit
(** Handle-free fast path: like {!schedule_at} but the event cannot be
    cancelled and no handle is allocated.  Use for fire-and-forget events
    on hot paths (see {!type:handle} for when a handle is warranted).
    @raise Invalid_argument if [time] is in the past or nan. *)

val schedule_after_ : t -> delay:float -> (unit -> unit) -> unit
(** [schedule_after_ t ~delay f] is
    [schedule_at_ t ~time:(now t +. delay) f].
    @raise Invalid_argument if [delay] is negative or nan. *)

val cancel : handle -> unit
(** Cancel a pending event; cancelling an already-fired or already-cancelled
    event is a no-op. *)

val is_pending : handle -> bool

val run : ?until:float -> t -> unit
(** Drain the event queue.  With [~until], stop once the next event would
    fire strictly after [until] and advance the clock to [until]: this is
    {!advance} with no budget. *)

val advance : t -> until:float -> budget:int -> bool
(** [advance t ~until ~budget] fires events due at or before [until], at
    most [budget] of them (a cancelled event popped on the way counts).
    Returns [true] once none is left, with the clock advanced to [until];
    [false] when the budget ran out first, with the clock at the last
    event fired.  Calling it again resumes where it stopped, so a caller
    can do other work between bounded chunks of one span of simulated
    time without changing what the simulation does.
    @raise Invalid_argument if [budget < 1] or [until] is nan. *)

val events_fired : t -> int
(** Events whose action actually ran so far (cancelled events excluded) —
    the denominator-free half of an events/sec figure. *)

val busy_seconds : t -> float
(** Cumulative wall-clock seconds spent inside {!run} and {!advance}
    calls.  With {!events_fired} this yields the engine's events/sec
    throughput. *)
