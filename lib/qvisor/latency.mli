(** Worst-case delay bounds via network calculus.

    The paper's offline analysis (Idea 2) calls for reasoning about the
    {e worst case} of combined workloads.  Band isolation gives ordering
    guarantees; this module adds {e timing} guarantees: given per-tenant
    token-bucket arrival envelopes (burst [sigma] bytes, rate [rho]
    bytes/s — the standard (σ, ρ) characterization), it derives each
    tenant's worst-case queueing delay at a link scheduled by the
    synthesized plan.

    For a tenant in strict tier [k] of a work-conserving scheduler of
    capacity [c] the classic bound applies: the tenant's backlog clears
    only after all higher-tier backlog, so

    {v delay <= (Σ_{i<=k} sigma_i + mtu) / (c - Σ_{i<k} rho_i) v}

    provided the higher tiers leave capacity ([Σ_{i<k} rho_i < c]) — the
    [mtu] term accounts for one in-flight lower-priority packet
    (non-preemption).  Tenants sharing a tier are mutually
    FIFO-equivalent in the worst case, so their envelopes pool. *)

type envelope = {
  sigma : float;  (** burst, bytes *)
  rho : float;  (** sustained rate, bytes/s *)
}

val envelope : sigma:float -> rho:float -> envelope
(** @raise Invalid_argument on negative burst or non-positive rate. *)

type bound =
  | Bounded of float  (** worst-case queueing delay, seconds *)
  | Unstable
      (** the tenant's tier (plus everything above it) over-subscribes
          the link: no finite worst case exists *)

val tier_of_tenant : Synthesizer.plan -> tenant_id:int -> int
(** Index of the top-level strict tier containing the tenant (0 =
    highest priority).
    @raise Invalid_argument for an unknown tenant. *)

val delay_bound :
  plan:Synthesizer.plan ->
  envelopes:(int * envelope) list ->
  link_rate:float ->
  tenant_id:int ->
  unit ->
  bound
(** Worst-case delay of a tenant's packets at a link of [link_rate]
    (bits/s) scheduled according to [plan]'s strict tiers.  [envelopes]
    maps tenant ids to their declared arrival envelopes; a tenant with no
    envelope contributes nothing (treat with care).  One 1518-byte frame
    in service is the non-preemption term.
    @raise Invalid_argument on bad rates or an unknown [tenant_id]. *)

val report :
  plan:Synthesizer.plan ->
  envelopes:(int * envelope) list ->
  link_rate:float ->
  unit ->
  (Tenant.t * bound) list
(** Bounds for every tenant of the plan, in tenant-id order. *)

val pp_bound : Format.formatter -> bound -> unit
