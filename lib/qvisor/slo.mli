(** Per-tenant service-level objectives: derivation and online audit.

    The judgment layer between the offline analysis and the running data
    plane.  {!derive} turns a synthesized plan (plus optional arrival
    envelopes) into one {!objective} per tenant:

    - a {e worst-case delay bound} from the network-calculus analysis
      ({!Latency.delay_bound}) when envelopes and a link rate are given —
      [None] when the tenant's tier is unstable or no envelope exists;
    - a {e drop budget}: the fraction of enqueue attempts the tenant may
      lose before its error budget is spent;
    - a {e rank-error budget} measured from the plan itself: the plan's
      own quantization error (sampled over the tenant's declared range)
      with headroom, so a healthy run never trips it but a buggy
      transform or an unmitigated attack does.

    An {!t} (auditor) then checks the objectives online against samples
    streamed from the data plane — enqueue attempts, drops, per-hop
    sojourn delays, pre-processor rank errors — in constant memory per
    tenant: one run-cumulative {!Engine.Telemetry.Histogram} of delays
    (~2,050 words; any quantile, within 1/64 of the exact one) plus
    window/EWMA drop accounting in the style of SRE burn-rate alerting:

    - {e fast burn} — last closed window's drop rate over the budget
      (catches an acute failure within one window);
    - {e slow burn} — EWMA of window burns (catches sustained slow leak);
    - {e budget remaining} — the run-cumulative error budget left.

    {!evaluate} folds a tenant's current status into one
    {!Engine.Health.signal} plus a human-readable detail string, ready to
    feed a {!Engine.Health} state machine. *)

type objective = {
  tenant : Tenant.t;
  delay_bound : float option;
      (** worst-case per-hop queueing delay, seconds; [None] when
          unbounded (unstable tier) or underived (no envelope) *)
  delay_quantile : float;  (** audited delay quantile, e.g. [0.99] *)
  drop_budget : float;  (** allowed drop fraction of enqueue attempts *)
  rank_error_budget : float;
      (** allowed [|applied - ideal|] rank distortion *)
}

val derive :
  plan:Synthesizer.plan ->
  ?envelopes:(int * Latency.envelope) list ->
  ?link_rate:float ->
  ?drop_budget:float ->
  unit ->
  objective list
(** One objective per plan tenant, in tenant-id order.  Delay bounds are
    derived only when both [envelopes] and [link_rate] are given (by
    {!Latency.delay_bound}), then doubled: the calculus bound assumes
    FIFO service within the aggregate, but a tenant's own scheduler
    (pFabric's SRPT, say) reorders within the band, so a low-priority
    packet can be overtaken by roughly one extra backlog drain.  The
    audited delay quantile is [0.99].  [drop_budget] defaults to
    [0.02]; a tenant below a strict edge keeps only a sanity-floor drop
    budget of [0.5] — starvation of a strictly-lower tier is [>>]
    working as specified, not an incident, so its drop objective guards
    against total collapse rather than promising service.
    The rank-error budget is [1.5 x + 1] where [x] is the plan's measured
    worst quantization error over (at most 1024 samples of) the tenant's
    declared range.
    @raise Invalid_argument when [drop_budget <= 0]. *)

type audit_config = {
  window : int;  (** enqueue attempts per burn window (default 256) *)
  ewma_alpha : float;  (** slow-burn smoothing factor (default 0.2) *)
  fast_breach : float;
      (** fast-burn multiple that counts as a breach (default 4.0) *)
}

val default_audit_config : audit_config

type status = {
  objective : objective;
  attempts : int;  (** enqueue attempts observed (all hops) *)
  drops : int;
  drop_rate : float;  (** run-cumulative [drops / attempts] *)
  fast_burn : float;  (** last closed window's burn rate; [0.] initially *)
  slow_burn : float;  (** EWMA of window burn rates *)
  budget_remaining : float;  (** fraction of the error budget left, in [0, 1] *)
  observed_delay : float;
      (** live estimate of the audited delay quantile; [nan] when no
          samples yet *)
  delay_samples : int;
  max_rank_error : float;
  rank_samples : int;
  tie_inversions : int;
      (** equal-rank FIFO-order violations observed at the tenant's
          queues — see {!Net.create}'s [on_tie_inversion] *)
}

type t

val create : ?config:audit_config -> objectives:objective list -> unit -> t
(** @raise Invalid_argument on a non-positive window, [ewma_alpha]
    outside (0, 1], or [fast_breach < 1]. *)

val on_enqueue : t -> Sched.Packet.t -> unit
(** Count one enqueue attempt for the packet's tenant (closing a burn
    window every [window] attempts).  Unknown tenants are ignored —
    hook this to {!Net}'s per-hop enqueue path. *)

val on_drop : t -> Sched.Packet.t -> unit

val on_delay : t -> tenant_id:int -> float -> unit
(** Feed one per-hop sojourn sample (seconds), e.g.
    [now - enqueued_at] from a dequeue hook. *)

val on_rank_error : t -> tenant_id:int -> float -> unit
(** Feed one pre-processor [|applied - ideal|] sample. *)

val on_tie_inversion : t -> tenant_id:int -> unit
(** Count one equal-rank FIFO-order violation against the tenant — hook
    this to {!Net}'s [on_tie_inversion] conformance tap.  A conforming
    (arrival-stable) scheduler never produces these, so any non-zero
    count is a breach. *)

val status : t -> tenant_id:int -> status option
(** [None] for tenants without an objective. *)

val statuses : t -> status list
(** Every audited tenant, in tenant-id order. *)

val evaluate : t -> tenant_id:int -> Engine.Health.signal * string
(** The tenant's current signal plus a detail string explaining it
    (["within objectives"] on a pass; the first violated condition
    otherwise).  Breach: drop budget exhausted, fast burn at or above
    [fast_breach], observed delay quantile above the derived bound (once
    five samples exist), rank error above budget, or any equal-rank
    FIFO-order inversion (a conforming scheduler produces none).  Warn:
    any burn rate at or above 1, or under a quarter of the error budget
    left.  Unknown tenants pass. *)

val objectives : t -> objective list

val pp_objective : Format.formatter -> objective -> unit

val pp_status : Format.formatter -> status -> unit
