(** Tenant scheduling specifications.

    Per §3.1, a tenant is a traffic segment plus a scheduling algorithm:
    the tenant tags its packets with a tenant identifier and a rank
    computed by its rank function.  For the synthesizer, a tenant also
    declares the {e range} its raw ranks live in (the paper's "rank
    distributions … bounded and known in advance") and a weight used when
    sharing a band with other tenants. *)

type t = {
  id : int;  (** the tenant identifier carried by packets *)
  name : string;  (** the identifier used in the operator's policy string *)
  algorithm : string;  (** descriptive rank-function name (e.g. "pfabric") *)
  rank_lo : int;  (** smallest raw rank the tenant emits *)
  rank_hi : int;  (** largest raw rank the tenant emits *)
  weight : float;  (** share weight within a [+] group (default 1.0) *)
}

val make :
  ?algorithm:string ->
  ?rank_lo:int ->
  ?rank_hi:int ->
  ?weight:float ->
  id:int ->
  name:string ->
  unit ->
  t
(** Defaults: [algorithm = "custom"], range [0, 65535], weight 1.0.
    @raise Invalid_argument if [id] is outside [\[0, 65535\]] (ids index
    dense per-tenant tables — pre-processor, SLO auditor, guard, runtime
    and fabric telemetry — sized to the largest id plus one),
    [rank_lo > rank_hi], the name is empty, or [weight <= 0]. *)

val range_width : t -> int
(** [rank_hi - rank_lo + 1]. *)
