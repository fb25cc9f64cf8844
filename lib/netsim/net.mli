(** The packet-switched fabric: output-queued ports, store-and-forward
    links, and ECMP forwarding.

    Every unidirectional link has an output port at its source holding a
    queue discipline.  Transmitting a packet occupies the link for
    [size * 8 / rate] seconds; the packet then arrives at the far end after
    the propagation delay and is either forwarded (switch) or delivered
    (host).  A port keeps the packets it has put on the wire in a FIFO
    ring and one preallocated arrival event pops it, so a hop allocates
    no closure.  Ring order is arrival order: the link serializes its
    transmissions, so its arrival times strictly increase, and events at
    equal times fire in scheduling order.

    The [preprocess] hook runs on every packet immediately before it is
    offered to a port's queue — this is where QVISOR's pre-processor
    rewrites ranks.  The [on_dequeue] hook runs as a packet starts
    transmission (used by STFQ-style rankers to advance their virtual
    clock). *)

type t

type shaper = {
  shaper_rate : float;  (** token refill rate, bytes/s *)
  shaper_burst : float;  (** bucket depth, bytes *)
}
(** Token-bucket egress shaping: a port holding a shaper transmits a
    packet only when the bucket holds its size in tokens, making the port
    non-work-conserving (it can idle with a backlog).  This is the
    mechanism behind rate-limited tenants and the paper's
    "non-work-conserving scheduling algorithms" direction. *)

type flight_config = {
  ring_capacity : int;  (** events each port's ring retains *)
  trigger_window : int;  (** enqueue attempts per sliding window *)
  drop_threshold : float;  (** drop fraction in the window that fires *)
  trigger_cooldown : int;  (** attempts suppressed after a fire *)
}
(** Flight-recorder configuration: one always-on
    {!Engine.Recorder} ring per port, paired with a drop-rate
    {!Engine.Recorder.Trigger} with hysteresis. *)

val default_flight : flight_config
(** [{ring_capacity = 512; trigger_window = 128; drop_threshold = 0.5;
     trigger_cooldown = 128}]. *)

val create :
  sim:Engine.Sim.t ->
  topo:Topology.t ->
  routing:Routing.t ->
  make_qdisc:(Topology.link -> Sched.Qdisc.t) ->
  ?shaper_of:(Topology.link -> shaper option) ->
  ?preprocess:(Sched.Packet.t -> unit) ->
  ?on_enqueue:(Sched.Packet.t -> unit) ->
  ?on_dequeue:(Sched.Packet.t -> unit) ->
  ?on_drop:(Sched.Packet.t -> unit) ->
  ?on_tie_inversion:(Sched.Packet.t -> unit) ->
  ?telemetry:Engine.Telemetry.t ->
  ?profiler:Engine.Span.t ->
  ?flight:flight_config ->
  ?on_anomaly:(link_id:int -> Engine.Recorder.t -> unit) ->
  ?meters:Engine.Perf.Meters.t ->
  deliver:(Sched.Packet.t -> unit) ->
  unit ->
  t
(** [deliver] fires when a packet reaches its destination host.
    [shaper_of] (default: none anywhere) attaches token-bucket shapers to
    selected ports.

    [on_enqueue] (default: nothing) runs on every packet as it is offered
    to a port's queue, after [preprocess] — per hop, so a packet crossing
    four links fires it four times.  With [on_drop] this gives exact
    offered-vs-lost accounting per hop: the SLO auditor's tap.

    [on_tie_inversion] (default: nothing) fires when a port serves a
    packet that shares the previously served packet's rank, precedes it
    in both tie orders (global uid and arrival at that port), and was
    already queued when that packet left — an equal-rank FIFO-order
    violation.  A uid-stable PIFO never fires it (it would have served
    the lower uid first), nor does a pure FIFO (earlier arrival first);
    a scheduler that serves ties newest-first does so constantly, which
    makes the hook the online conformance tap for the SLO auditor.
    With telemetry, each firing also increments the
    [net.tie_inversions] counter.

    [profiler] (default: off) wraps fabric construction in a ["net.build"]
    span.  The per-packet path is deliberately not spanned — the flight
    recorder is the packet-granularity layer.

    [flight] (default: off) arms a per-port flight recorder: every
    preprocess / enqueue / drop / evict / dequeue is appended to the
    port's ring (unsampled, unconditionally — the ring is the cheap
    always-on layer), and each enqueue attempt feeds the port's drop-rate
    trigger.  When a trigger fires, [on_anomaly] (default: nothing) runs
    with the port's recorder — the hook dumps the last-N events as NDJSON
    next to whatever reproducer the caller is writing.

    With none of the four hooks and no enabled [meters], a hop makes no
    hook call and no meter bracket.

    [meters] (default: {!Engine.Perf.Meters.disabled}) brackets the
    per-hop stages with throughput meters: [enqueue] spans the whole
    admission path of a hop (with nested [preprocess], [slo_audit] and
    [recorder] meters attributing its components), [dequeue] spans a
    packet's start-of-transmission path, [slo_audit] additionally counts
    the [on_dequeue]/[on_drop]/[on_tie_inversion] hook calls, and
    [recorder] the flight-recorder appends.  The caller publishes the
    meters into a registry at window close
    ({!Engine.Perf.Meters.publish}).

    [telemetry] (default: off) instruments every port: per-port and
    per-tenant enqueue/dequeue/drop counters ([net.port.<id>.*],
    [net.tenant.<id>.*], plus [net.enqueue]/[net.dequeue]/[net.drop]
    aggregates), a queue-depth histogram [net.queue_depth_pkts] sampled
    after each enqueue, and a sojourn-time histogram [net.sojourn_seconds]
    observed as packets start transmission.  When the registry carries a
    trace sink, each enqueue/dequeue/drop/evict — and, if a [preprocess]
    hook is installed, each rank rewrite — is offered to it as an
    {!Engine.Recorder.event} row, with the same kind the flight ring
    records.
    @raise Invalid_argument on a shaper with non-positive rate or a burst
    smaller than one full packet (1518 bytes). *)

val inject : t -> Sched.Packet.t -> unit
(** A host hands a packet to its NIC: the packet is routed onto the host's
    uplink queue.  The packet's [src] must be a host. *)

val total_drops : t -> int
(** Packets dropped across all ports so far. *)

val port_qdisc : t -> link_id:int -> Sched.Qdisc.t
(** The queue discipline serving a given link's output port (for tests
    and instrumentation). *)

val queued_packets : t -> int
(** Packets currently sitting in any port queue. *)

val port_tx_bytes : t -> link_id:int -> int
(** Bytes transmitted on a link so far. *)

val link_utilization : t -> link_id:int -> now:float -> float
(** Average utilization of a link over [\[0, now\]]:
    [bytes * 8 / (rate * now)].  Returns [0.] at time zero. *)

val busiest_links : t -> now:float -> top:int -> (int * float) list
(** The [top] most-utilized links as [(link_id, utilization)], most
    utilized first. *)
