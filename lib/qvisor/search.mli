(** Resource-constrained synthesis (§5, "Compiling scheduling policies
    into hardware").

    When the target scheduler cannot realize the full specification —
    e.g. a strict-priority bank with fewer queues than the policy has
    strict tiers — the paper proposes that QVISOR should not simply fail
    but {e propose partial specifications implementable on the available
    resources}, together with the guarantees they still offer.

    This module implements that search.  Relaxation is a lattice walk:
    the weakest-impact relaxations are tried first (demoting the
    lowest-priority [>>] into [>], since the paper's operators are
    ordered by strength: [>>] ⊃ [>] ⊃ [+]), and each candidate is checked
    for deployability on the given backend. *)

type resources = {
  num_queues : int;  (** strict-priority queues available *)
  queue_capacity_pkts : int;
}

type proposal = {
  original : Policy.t;
  relaxed : Policy.t;  (** deployable policy ([= original] when it fits) *)
  demotions : (string * string) list;
      (** tier pairs whose [>>] was demoted to [>], highest priority
          first — the guarantees given up *)
  plan : Synthesizer.plan;  (** plan synthesized for [relaxed] *)
  bounds : int array;  (** queue mapping for the backend *)
  exact_fit : bool;  (** no relaxation was needed *)
}

val required_queues : Policy.t -> int
(** Strict tiers in the policy = minimum queues for a faithful
    strict-priority deployment. *)

val fit :
  tenants:Tenant.t list ->
  policy:Policy.t ->
  resources:resources ->
  unit ->
  (proposal, Error.t) result
(** Find the closest deployable policy.  Returns an error only when even
    the fully-relaxed policy (a single tier) cannot be synthesized, or
    the inputs are invalid ([num_queues <= 0], unknown tenants, ...). *)

val pp_proposal : Format.formatter -> proposal -> unit
