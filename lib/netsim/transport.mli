(** End-host transports.

    Two senders are provided, matching the paper's evaluation:

    - a {e windowed transport} in the style of Netbench's simplified
      pFabric transport: a fixed window of unacknowledged packets, per-packet
      acknowledgements on the reverse path, and timeout-driven
      retransmission.  Flow completion is measured at the receiver, when
      the last payload byte arrives.
    - a {e constant-bit-rate (CBR) sender} for the deadline tenant: paced
      packets carrying per-packet deadlines, no acknowledgements, no
      retransmission (a late or lost deadline packet is worthless).

    Ranks are computed at the sending host by the tenant's rank function,
    exactly as §3.1 prescribes ("ranks … always have to be specified before
    reaching QVISOR's pre-processor"). *)

type t

val create : sim:Engine.Sim.t -> unit -> t

val attach : t -> Net.t -> unit
(** Connect the transport to a fabric.  Must be called exactly once,
    before any flow starts.  Wire [Net.create ~deliver:(deliver t)] to
    route arriving packets back into the transport. *)

val deliver : t -> Sched.Packet.t -> unit
(** The fabric's delivery callback. *)

type flow_result = {
  flow_id : int;
  tenant : int;
  size : int;  (** payload bytes *)
  started_at : float;
  completed_at : float;
}

val fct : flow_result -> float
(** Flow completion time in seconds. *)

val start_flow :
  t ->
  tenant:int ->
  ranker:Sched.Ranker.t ->
  src:int ->
  dst:int ->
  size:int ->
  ?window:int ->
  ?rto:float ->
  ?deadline:float ->
  on_complete:(flow_result -> unit) ->
  unit ->
  int
(** Start a windowed flow of [size] payload bytes now; returns the flow id.
    [window] is the unacknowledged-packet budget (default 12), [rto] the
    retransmission timeout (default 1 ms); a packet carries 1460 payload
    bytes.  [deadline], if given, is stamped on every
    packet (absolute time) for deadline-aware rankers.
    @raise Invalid_argument on non-positive [size] or bad parameters. *)

type cbr_stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable deadline_met : int;
  delay : Engine.Stats.t;  (** one-way packet delay of delivered packets *)
}

val start_cbr :
  t ->
  tenant:int ->
  ranker:Sched.Ranker.t ->
  src:int ->
  dst:int ->
  rate:float ->
  ?deadline_budget:float ->
  ?jitter:Engine.Rng.t ->
  until:float ->
  unit ->
  cbr_stats
(** Start a CBR stream of [rate] bits/s of 1460-byte payloads from now
    until absolute time [until].  Each packet carries deadline [now + deadline_budget]
    (default 1 ms).  With [jitter], packet gaps are exponentially
    distributed with the same mean (a Poisson stream of the same rate),
    which avoids phase-locking artifacts between synchronized senders. *)

val active_flows : t -> int
(** Windowed flows started but not yet completed at the receiver. *)
