(** The runtime controller (the paper's Idea 2, online flavour).

    An event-driven controller in the spirit of the paper's SDN analogy:
    it observes the raw rank range each tenant actually emits (two ints
    per tenant, updated allocation-free on every hop), supports tenants
    joining and leaving at runtime, and re-synthesizes + hot-swaps the
    pre-processor's plan when the population or the observed ranges
    change. *)

type t

val create :
  ?config:Synthesizer.config ->
  ?telemetry:Engine.Telemetry.t ->
  tenants:Tenant.t list ->
  policy:Policy.t ->
  unit ->
  (t, Error.t) result
(** Build the controller, synthesize the initial plan, and compile the
    pre-processor.  Fails with the initial synthesis error when there is
    one.

    [telemetry] (default: off) is threaded to the pre-processor and
    counts every successful re-synthesis under [runtime.resyntheses]. *)

val create_exn : tenants:Tenant.t list -> policy:Policy.t -> unit -> t
(** {!create} with the default configuration and no telemetry.
    @raise Invalid_argument if the initial synthesis fails. *)

val process : t -> Sched.Packet.t -> unit
(** The line-rate path: fold the packet's rank label into its tenant's
    observed range, then apply the current transformation.  Install this
    as the fabric's [preprocess] hook. *)

val plan : t -> Synthesizer.plan

val resyntheses : t -> int
(** Number of plan recomputations so far (initial synthesis excluded). *)

val observed_range : t -> tenant_id:int -> (int * int) option
(** Smallest and largest raw rank seen from a tenant since the last
    [refresh] reset ([None] before any packet). *)

val add_tenant :
  t -> Tenant.t -> ?policy:Policy.t -> unit -> (unit, Error.t) result
(** A tenant joins (the paper's t1 moment in Fig. 2).  A new policy
    covering the extended population must be supplied via [?policy] unless
    the current one already names the tenant.  On success the plan is
    re-synthesized and swapped in. *)

val remove_tenant :
  t -> tenant_id:int -> ?policy:Policy.t -> unit -> (unit, Error.t) result
(** A tenant leaves.  [?policy] replaces the operator policy when the
    current one would still name the departed tenant (which it normally
    does).  Atomic like every redeploy: the tenant's observed range is
    forgotten only once the new plan is in. *)

val tenants : t -> Tenant.t list
(** The currently-deployed tenant population, in deployment order. *)

val policy : t -> Policy.t
(** The currently-deployed operator policy. *)

val update_policy : t -> Policy.t -> (unit, Error.t) result
(** Re-synthesize under a new operator policy for the unchanged tenant
    population and atomically swap the plan in.  On failure the old plan
    keeps serving — the daemon's admission pipeline leans on this. *)

val config : t -> Synthesizer.config
(** The synthesizer configuration future redeploys will use. *)

val coarsen : t -> levels:int -> (unit, Error.t) result
(** Remediation fallback: lower the quantization resolution to [levels]
    and re-synthesize.  Atomic like every redeploy — on failure both the
    plan {e and} the previous configuration are kept.
    Fails with [Config] when [levels < 2]. *)

val refresh : t -> (unit, Error.t) result
(** Re-synthesize using the {e observed} rank ranges instead of the
    declared ones (tenants that emitted nothing keep their declaration),
    then reset the observation window.  This is the paper's "compute
    transformation functions … based on the distribution of the latest
    packets". *)
