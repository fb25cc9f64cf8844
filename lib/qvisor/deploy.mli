(** Deploying a synthesized plan onto schedulers (§3.4).

    The ideal target is a PIFO queue, which serves transformed ranks
    perfectly.  Commodity targets provide weaker guarantees: a bank of
    strict-priority FIFO queues sorts only between queues, SP-PIFO adapts
    queue bounds but still admits inversions, and AIFO approximates with a
    single queue.  [instantiate] builds the configured scheduler;
    [queue_bounds_of_plan] derives the static rank-to-queue mapping that
    dedicates queues to strict tiers (the paper's "allocating dedicated
    queues" example); [guarantees] states what survives the mapping. *)

type backend =
  | Ideal_pifo of { capacity_pkts : int }
  | Sp_bank of { num_queues : int; queue_capacity_pkts : int }
      (** static rank-range mapping derived from the plan's bands *)
  | Sp_pifo of { num_queues : int; queue_capacity_pkts : int }
      (** adaptive bounds, plan-agnostic *)
  | Aifo of { capacity_pkts : int; window : int; k : float }
  | Drr_bank of {
      num_queues : int;
      queue_capacity_pkts : int;
      quantum_bytes : int;
    }
      (** deficit round robin across rank-range queues: byte-fair between
          bands, FIFO within — suits [+]-heavy policies *)
  | Calendar of { num_buckets : int; bucket_width : int; capacity_pkts : int }
      (** rotating calendar queue over transformed ranks *)

type guarantee_level =
  | Exact  (** transformed rank order served exactly *)
  | Tiered of int
      (** strict tiers preserved via dedicated queues; ordering inside a
          tier degrades to FIFO across the given number of queues *)
  | Approximate
      (** statistical approximation only; no per-pair worst-case
          guarantee *)

val instantiate :
  plan:Synthesizer.plan -> backend -> (Sched.Qdisc.t, Error.t) result
(** Build the scheduler.  For [Sp_bank] the classifier maps transformed
    ranks to queues along the plan's strict-tier boundaries.  Fails with
    {!Error.Deploy} when the backend cannot host the plan (e.g. fewer
    queues than strict tiers). *)

val instantiate_exn : plan:Synthesizer.plan -> backend -> Sched.Qdisc.t
(** @raise Invalid_argument on deployment errors. *)

val queue_bounds_of_plan :
  plan:Synthesizer.plan -> num_queues:int -> (int array, Error.t) result
(** Upper rank bound per queue (non-decreasing).  Strict-tier boundaries
    are honoured first — each tier gets at least one dedicated queue —
    then remaining queues are spread across the widest tiers.  Fails with
    {!Error.Deploy} if [num_queues] is smaller than the number of strict
    tiers. *)

val guarantees : plan:Synthesizer.plan -> backend -> guarantee_level

val describe : backend -> string

val pifo_tree_of_policy :
  tenants:Tenant.t list ->
  policy:Policy.t ->
  capacity_pkts:int ->
  unit ->
  (Sched.Qdisc.t, Error.t) result
(** The §5 "PIFO trees" alternative to rank transformations: compile the
    operator policy {e directly} into a hierarchical scheduler — [>>]
    becomes a strict node, [+] a WFQ node over the members' weights, [>]
    a WFQ node with geometrically decaying weights (each successive
    operand's weight is 0.25 times the previous one).  Each tenant
    gets a leaf scheduling its packets by their {e raw} ranks, so no
    pre-processor is needed at all — the tree itself realizes the
    multi-tenant composition.  Packets of unknown tenants share the last
    tenant's leaf. *)
