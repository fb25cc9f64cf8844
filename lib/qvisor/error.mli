(** Typed errors for the QVISOR public API.

    Every fallible constructor in the library ({!Runtime.create},
    {!Deploy.instantiate}, {!Synthesizer.synthesize},
    {!Serialize.tenant_of_json}, the experiment harnesses) reports
    failure as [(_, Error.t) result] rather than a bare string or a stray
    [Invalid_argument].  Typed errors matter once work is fanned out
    across domains: a worker returns its failure as a value, the caller
    pattern-matches on the variant, and no exception ever crosses a
    domain boundary. *)

type t =
  | Policy_parse of string
      (** the operator policy string does not lex/parse *)
  | Unknown_tenant of string
      (** the policy names a tenant that was never declared *)
  | Synthesis of string
      (** the synthesizer cannot build a joint scheduling function
          (coverage, duplicates, rank-space too narrow, ...) *)
  | Deploy of string
      (** a plan cannot be instantiated on the requested backend *)
  | Config of string
      (** malformed configuration: synthesizer config, experiment
          parameters, CLI arguments *)
  | Unavailable of string
      (** the service cannot take the request right now: a draining or
          shutting-down daemon refusing control-plane mutations *)

val to_string : t -> string
(** Human-readable rendering, prefixed with the variant's domain,
    e.g. ["policy: unexpected character ..."] or
    ["deploy: fewer queues than strict tiers"]. *)

val equal : t -> t -> bool
