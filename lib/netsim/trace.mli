(** Flow traces: record, save, load, and replay workloads.

    The paper's workloads come from production-derived distributions; real
    deployments replay measured traces.  This module defines a minimal
    flow-trace format (one flow per line:
    [start_time src dst size_bytes tenant], '#' comments allowed) so
    experiments can be frozen to disk and replayed bit-for-bit, and so
    external traces can be imported. *)

type flow_spec = {
  start : float;  (** absolute start time, seconds *)
  src : int;
  dst : int;
  size : int;  (** payload bytes *)
  tenant : int;
}

val to_string : flow_spec list -> string

val of_string : string -> (flow_spec list, string) result
(** Parse; errors carry the offending line number. *)

val save : string -> flow_spec list -> unit
(** Write to a file. *)

val load : string -> (flow_spec list, string) result

val synthesize :
  rng:Engine.Rng.t ->
  dist:Engine.Rng.Empirical.dist ->
  num_hosts:int ->
  load:float ->
  access_rate:float ->
  tenant:int ->
  until:float ->
  flow_spec list
(** Generate a Poisson open-loop trace offline (same model as
    {!Workload.poisson_open_loop}), sorted by start time. *)

val replay :
  sim:Engine.Sim.t ->
  transport:Transport.t ->
  ranker_of_tenant:(int -> Sched.Ranker.t) ->
  on_complete:(Transport.flow_result -> unit) ->
  flow_spec list ->
  unit
(** Schedule every flow of the trace on the simulator, with
    {!Transport.start_flow}'s default window and RTO.  Flows whose
    [start] is in the simulated past are rejected by the engine, so
    replay before running the simulation. *)
