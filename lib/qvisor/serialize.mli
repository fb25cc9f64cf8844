(** JSON serialization of control-plane artifacts.

    A production hypervisor exchanges its configuration and its decisions
    with orchestration systems; this module gives every control-plane
    object a stable JSON form: tenants and policies round-trip, and
    synthesized plans / analysis reports / latency bounds export (they are
    re-derivable from the inputs, so no importer is provided for them). *)

val tenant_to_json : Tenant.t -> Engine.Json.t

val tenant_of_json : Engine.Json.t -> (Tenant.t, Error.t) result

val policy_to_json : Policy.t -> Engine.Json.t
(** Encoded as the operator-syntax string (the canonical form). *)

val policy_of_json : Engine.Json.t -> (Policy.t, Error.t) result

val config_to_json : Synthesizer.config -> Engine.Json.t
(** Rank space, quantization levels ([null] for full resolution) and
    prefer bias — everything needed to re-synthesize a plan from a spec,
    e.g. in a conformance reproducer file. *)

val config_of_json : Engine.Json.t -> (Synthesizer.config, Error.t) result

val plan_to_json : Synthesizer.plan -> Engine.Json.t
(** Policy, rank space, and per-tenant band + transformation. *)

val report_to_json : Analysis.report -> Engine.Json.t

val spec_to_json : tenants:Tenant.t list -> policy:Policy.t -> Engine.Json.t
(** The full input specification: what an operator would persist. *)

val spec_of_json :
  Engine.Json.t -> (Tenant.t list * Policy.t, Error.t) result

val error_to_json : Error.t -> Engine.Json.t
(** [{"kind": "synthesis", "message": ...}] — the form failure replies of
    the daemon wire protocol carry.  Round-trips through
    {!error_of_json}. *)

val error_of_json : Engine.Json.t -> (Error.t, Error.t) result
(** Inverse of {!error_to_json}; [Error] (a [Config]) on a malformed or
    unknown-kind object. *)
