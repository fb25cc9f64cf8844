(** Ablation A3: the paper's Fig. 2 timeline under congestion.

    On the quick Fig. 4 fabric ({!Fig4.quick}: 8 hosts on a 2x2
    leaf-spine), an interactive pFabric tenant (T1) and a deadline EDF
    tenant (T2) run from the start; at [t_join] a background fair-queuing tenant (T3)
    starts blasting large flows.  The operator policy is
    [T1 + T2 >> T3]: the background tenant must never disturb the other
    two.

    We measure T1's small-flow FCT before and after T3 joins, under
    QVISOR (rank transformations in front of PIFO ports) and naively
    (raw ranks into the same PIFO ports).  QVISOR should hold T1's FCT
    steady across the join; the naive deployment lets T3's
    low-virtual-time STFQ ranks cut ahead of T1. *)

type result = {
  scheme : string;
  before_join_ms : float;  (** T1 small-flow mean FCT before [t_join] *)
  after_join_ms : float;  (** same, while T3 is active *)
  degradation : float;  (** [after /. before] *)
  t3_flows_completed : int;
  activity : Engine.Tsdb.range list;
      (** per-tenant delivered bytes per 10 ms bucket, one answer per
          tenant named after it — the Fig. 2 timeline *)
}

type params = {
  t1_load : float;
  t3_load : float;
  t_join : float;
  t_end : float;
  drain : float;
  seed : int;
}

val default : params

val run :
  ?telemetry:Engine.Telemetry.t ->
  ?profiler:Engine.Span.t ->
  params ->
  qvisor:bool ->
  result
(** [telemetry] (default: off) instruments the fabric ports and — under
    [~qvisor:true] — the pre-processor.  [profiler] (default: off) wraps
    the run in a ["churn.run"] span with synthesis / net-build / sim
    children. *)

val compare_schemes :
  ?jobs:int ->
  ?telemetry_for:(qvisor:bool -> Engine.Telemetry.t) ->
  ?profiler_for:(qvisor:bool -> Engine.Span.t) ->
  params ->
  result list
(** Run both configurations — on separate domains when [jobs >= 2]
    (default {!Engine.Parallel.default_jobs}) — and return
    [naive; qvisor] results in that fixed order regardless of which
    finishes first.  [telemetry_for] supplies each run's private
    registry (default: off for both); [profiler_for] likewise each run's
    private span profiler. *)

val print : Format.formatter -> result list -> unit

val print_activity : Format.formatter -> result -> unit
(** ASCII rendering of each tenant's delivered bytes per bucket, headed
    by the bucket width the answers carry. *)
