(** The daemon's control-plane wire protocol.

    Line-oriented JSON over a Unix-domain stream socket: each request is
    one JSON object on one line, each reply one JSON object on one line.
    A connection may carry any number of request/reply exchanges.

    Requests name their operation in an ["op"] field:

    {v {"op":"tenant-add","tenant":{...},"policy":"edf >> pfabric"}
       {"op":"tenant-remove","id":1,"policy":"pfabric"}
       {"op":"policy-update","policy":"pfabric + edf"}
       {"op":"status"}
       {"op":"drain"}
       {"op":"shutdown"} v}

    Replies carry [{"ok":true,...}] with a ["reply"] discriminator on
    success, or [{"ok":false,"error":{"kind":...,"message":...}}]
    reusing {!Qvisor.Serialize.error_to_json} on failure.  Every encoder
    here round-trips through its decoder — the daemon test suite checks
    each constructor. *)

type request =
  | Tenant_add of { tenant : Qvisor.Tenant.t; policy : Qvisor.Policy.t option }
      (** admit a tenant; [policy] replaces the operator policy when the
          current one does not already name the newcomer *)
  | Tenant_remove of { tenant_id : int; policy : Qvisor.Policy.t option }
      (** evict a tenant; [policy] replaces the operator policy when the
          current one still names the departed *)
  | Policy_update of Qvisor.Policy.t
  | Status
  | Drain  (** stop traffic and refuse mutations; keep observability up *)
  | Shutdown

type tenant_status = {
  ts_id : int;
  ts_name : string;
  ts_algorithm : string;
  ts_health : Engine.Health.state;
}

type status = {
  epoch : int;  (** plan generation: 1 at startup, +1 per successful swap *)
  sim_time : float;  (** simulated seconds served so far *)
  uptime_seconds : float;  (** wall-clock seconds since the daemon started *)
  draining : bool;
  policy : string;  (** operator syntax of the serving policy *)
  tenants : tenant_status list;  (** tenant-id order *)
  resyntheses : int;
  remediations : int;  (** remediation actions fired so far *)
  tsdb_series : int;  (** retention-store series interned so far *)
  tsdb_memory_bytes : int;  (** {!Engine.Tsdb.memory_bytes} — fixed bound *)
}

type reply =
  | Added of { epoch : int }
  | Removed of { epoch : int }
  | Updated of { epoch : int }
  | Status_reply of status
  | Draining
  | Shutting_down

type outcome = (reply, Qvisor.Error.t) result

val request_to_json : request -> Engine.Json.t

val outcome_to_json : outcome -> Engine.Json.t

val request_line : request -> string
(** [request_to_json] serialized with the trailing newline — exactly the
    bytes a client writes. *)

val outcome_line : outcome -> string

val parse_request : string -> (request, Qvisor.Error.t) result
(** One wire line (sans newline) to a request; malformed JSON or an
    unknown ["op"] yields a [Config] error the server sends back as a
    failure reply. *)

val parse_outcome : string -> (outcome, Qvisor.Error.t) result
