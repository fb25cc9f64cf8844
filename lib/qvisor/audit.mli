(** The online SLO audit of one deployment, shared by
    [Experiments.Fig4.run ~slo:true] and the [qvisor serve] daemon:
    objectives derived from the plan, an {!Slo} auditor fed by the
    fabric's per-hop taps, an optional {!Guard} on the pre-processor
    path, the {!Engine.Health} machine those signals fold into, and its
    mirror into telemetry gauges.  The caller schedules evaluations and
    calls {!rederive} whenever the plan changes. *)

type t

val create :
  sim:Engine.Sim.t ->
  telemetry:Engine.Telemetry.t ->
  health:Engine.Health.t ->
  guard:bool ->
  capacity_pkts:int ->
  link_rate:float ->
  rho:(Tenant.t -> float) ->
  Synthesizer.plan ->
  t
(** Objectives for [plan] ({!Slo.derive} at [link_rate] bits/s, the
    fabric's binding link): each tenant's arrival envelope has rate
    [rho tenant] bytes/s and a burst of one full [capacity_pkts] queue of
    MTU packets, the realizable worst case at a port, so the bounds hold
    whatever the arrivals.  [health] starts watching every plan tenant.
    [guard] arms a {!Guard} over the plan's tenants; it keeps that tenant
    set for life. *)

val slo : t -> Slo.t
(** The current auditor. *)

val health : t -> Engine.Health.t

val rederive : t -> Synthesizer.plan -> unit
(** A new plan: fresh objectives and auditor; health starts watching new
    tenants and forgets departed ones, the rest keep their state. *)

(** {1 Taps}

    The four per-hop hooks of [Netsim.Net.create], the pre-processor's
    [on_rank_error] sampler and the (guarded) pre-processing path. *)

val on_enqueue : t -> Sched.Packet.t -> unit
val on_dequeue : t -> Sched.Packet.t -> unit
val on_drop : t -> Sched.Packet.t -> unit
val on_tie_inversion : t -> Sched.Packet.t -> unit
val on_rank_error : t -> int -> float -> unit
val preprocess : t -> Preprocessor.t -> Sched.Packet.t -> unit

val on_drop_spike : t -> link_id:int -> unit
(** A port's flight recorder fired.  The spike is blamed on the tenant
    whose drop rate since the previous spike overran its own budget the
    most, and held as that tenant's pending incident (the worst wins)
    until the next {!observe}: the recorder re-fires far faster than
    evaluations, and folding every fire would swamp the hysteresis.  A
    spike within every budget (a lower tier evicted by design of [>>]) is
    the policy working and is ignored. *)

(** {1 Evaluation} *)

val observe : t -> Tenant.t -> unit
(** Fold the tenant's {!Slo.evaluate} signal (source ["slo"]), guard
    verdict (["guard"]: malicious breaches, suspicious warns) and pending
    spike (["recorder"], a warning) into health at the simulated now. *)

val mirror : t -> Tenant.t -> unit
(** With an enabled registry, set the [slo.tenant.<id>.*] gauges
    ([fast_burn], [slow_burn], [budget_remaining],
    [delay_quantile_seconds]) and [health.tenant.<id>.state] (0 healthy,
    1 degraded, 2 violating). *)

val evaluate : t -> unit
(** {!observe} then {!mirror} each plan tenant, in tenant-id order. *)
