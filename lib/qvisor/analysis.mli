(** Static worst-case analysis of synthesized plans (the paper's Idea 2,
    offline flavour).

    The analyzer computes, by interval analysis over the transformations,
    the band each tenant's packets can occupy after pre-processing, and
    checks the operator's policy against the worst case: a [>>] relation
    holds only if even the {e worst} transformed rank of the higher side
    beats the {e best} transformed rank of the lower side.

    Constraints are checked between {e groups} — the operands of each
    policy operator — not tenant pairs: in [T1 + (T2 >> T3)] the sharing
    requirement binds T1 against the {e whole} sub-policy [(T2 >> T3)]
    (whose band is the union of its members'), while the nested strict
    requirement binds T2 against T3. *)

type relation =
  | Isolated  (** bands disjoint in the right order: [>>] guaranteed *)
  | Preferred of float
      (** bands overlap but the first starts strictly lower; the float is
          the fraction of the first band's width that is contested *)
  | Shared of float
      (** bands start at the same rank; the float is the Jaccard overlap
          of the two bands (1.0 = identical) *)
  | Inverted
      (** the supposedly-preferred band starts {e above} the other — a
          misconfiguration the synthesizer should never emit *)

type group = {
  label : string;  (** the operand, rendered in policy syntax *)
  members : Tenant.t list;
}

type pair_report = {
  high : group;  (** the operand the policy favours (or lists first) *)
  low : group;
  required : [ `Strict | `Prefer | `Share ];
  actual : relation;
  satisfied : bool;
}

type report = {
  pairs : pair_report list;
  feasible : bool;  (** every policy requirement satisfied in the worst case *)
  violations : string list;
}

val effective_band : Synthesizer.plan -> Tenant.t -> int * int
(** Worst-case transformed rank interval of a tenant's traffic. *)

val relation_between : Synthesizer.plan -> Tenant.t -> Tenant.t -> relation
(** Worst-case relation between two individual tenants. *)

val check : Synthesizer.plan -> report
(** Analyze every operand pair the policy relates (directly or through
    nesting) and report worst-case guarantees. *)

val starvation_risk : Synthesizer.plan -> Tenant.t list
(** Tenants that can be starved indefinitely under worst-case pressure:
    those strictly below some other tenant ([>>]).  This is by design —
    the analysis names them so the operator can see the consequence. *)

val pp_report : Format.formatter -> report -> unit
