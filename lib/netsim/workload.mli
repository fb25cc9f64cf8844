(** Workload generation for the paper's evaluation.

    The pFabric tenant runs a {e data-mining} workload: flow sizes drawn
    from the heavy-tailed empirical CDF published with pFabric (VL2's
    data-mining cluster), arriving as an open-loop Poisson process whose
    rate is set from a target load on the aggregate access capacity.  The
    EDF tenant runs constant-bit-rate flows between uniformly random
    server pairs.

    The data-mining CDF here is the published one with its tail capped at
    30 MB (the original reaches 1 GB; flows that large never finish within
    a simulated second and only shift absolute FCTs, not the comparisons —
    see DESIGN.md, Substitutions). *)

val data_mining : unit -> Engine.Rng.Empirical.dist
(** Heavy-tailed data-mining flow sizes, in bytes: half the flows are
    ≤ 1.1 KB while >95% of the bytes come from multi-megabyte flows. *)

val web_search : unit -> Engine.Rng.Empirical.dist
(** The DCTCP web-search flow-size distribution (bytes), tail-capped at
    30 MB; used in extension experiments. *)

val flow_arrival_rate :
  load:float -> num_hosts:int -> access_rate:float -> mean_flow_size:float -> float
(** Open-loop arrival rate (flows/s) that drives the hosts' aggregate
    access capacity at [load]: [load * num_hosts * access_rate / (8 * mean)]. *)

type arrivals = {
  mutable flows_started : int;
  mutable bytes_offered : int;
}

val poisson_open_loop :
  sim:Engine.Sim.t ->
  rng:Engine.Rng.t ->
  transport:Transport.t ->
  tenant:int ->
  ranker:Sched.Ranker.t ->
  num_hosts:int ->
  load:float ->
  access_rate:float ->
  dist:Engine.Rng.Empirical.dist ->
  ?window:int ->
  ?rto:float ->
  until:float ->
  on_complete:(Transport.flow_result -> unit) ->
  unit ->
  arrivals
(** Start a Poisson open-loop flow generator: flows arrive with
    exponential gaps, each between a uniformly random distinct host pair,
    sized from [dist].  Stops creating flows at [until]; flows in flight
    keep running.  Requires [num_hosts >= 2] and [0 < load]. *)

val cbr_tenant :
  sim:Engine.Sim.t ->
  rng:Engine.Rng.t ->
  transport:Transport.t ->
  tenant:int ->
  ranker:Sched.Ranker.t ->
  num_hosts:int ->
  flows:int ->
  rate:float ->
  ?deadline_budget:float ->
  until:float ->
  unit ->
  Transport.cbr_stats list
(** Start [flows] CBR streams at [rate] bits/s each, between uniformly
    random distinct host pairs, with per-packet deadlines — the paper's
    second tenant (100 flows at 0.5 Gb/s).  Each stream's budget is drawn
    uniformly from [deadline_budget * (1 ± 0.5)] so the EDF rank function
    actually discriminates between flows, and its packet gaps are Poisson
    to avoid phase locking. *)
