(** The paper's evaluation (§4, Fig. 4), as a reusable harness.

    Two tenants share a leaf-spine fabric: tenant 0 runs a data-mining
    workload scheduled with pFabric; tenant 1 runs CBR flows scheduled
    with EDF.  The harness measures the pFabric tenant's mean FCT for
    small (< 100 KB, Fig. 4a) and large (>= 1 MB, Fig. 4b) flows under
    six scheduling configurations and a range of loads. *)

type scheme =
  | Fifo_both  (** one FIFO queue per port, both tenants *)
  | Pifo_naive  (** PIFO per port, raw (clashing) ranks, both tenants *)
  | Pifo_pfabric_only  (** PIFO per port, pFabric traffic alone (ideal) *)
  | Qvisor_policy of string
      (** PIFO per port behind QVISOR's pre-processor, with the given
          operator policy over tenants ["pfabric"] and ["edf"] *)

val scheme_name : scheme -> string

val paper_schemes : scheme list
(** The six configurations of Fig. 4, in the paper's legend order:
    FIFO both, PIFO naive, PIFO pFabric-only, QVISOR [edf >> pfabric],
    QVISOR [pfabric + edf], QVISOR [pfabric >> edf]. *)

type params = {
  leaves : int;
  spines : int;
  hosts_per_leaf : int;
  access_rate : float;
  fabric_rate : float;
  link_delay : float;
  queue_capacity_pkts : int;
  load : float;  (** pFabric tenant load on aggregate access capacity *)
  cbr_flows : int;
  cbr_rate : float;
  cbr_deadline : float;
  duration : float;  (** flow-arrival window, seconds *)
  warmup : float;  (** flows starting earlier are not measured *)
  drain : float;  (** extra simulated time for in-flight flows *)
  pfabric_unit_bytes : int;  (** pFabric rank granularity *)
  edf_unit_seconds : float;  (** EDF rank granularity *)
  window : int;
  rto : float;
  seed : int;
  levels : int option;  (** QVISOR quantization levels (ablation A1) *)
  backend : Qvisor.Deploy.backend option;
      (** override the port scheduler for QVISOR schemes (ablation A2);
          [None] = ideal PIFO *)
  tree_backend : bool;
      (** deploy QVISOR schemes as a policy-compiled PIFO tree instead of
          pre-processor + scheduler (mutually exclusive with [backend]) *)
  inject_qdisc : (capacity_pkts:int -> Sched.Qdisc.t) option;
      (** fault injection: when set, this factory replaces {e every}
          port's queue discipline, whatever the scheme chose — the knob
          the SLO gate's negative CI test turns (e.g.
          {!Conformance.Fault.qdisc}) *)
}

val quick : params
(** 8-host fabric, 80 ms of arrivals — CI-sized, seconds to run. *)

val default : params
(** 24-host fabric at the paper's 1:1 oversubscription, 200 ms of
    arrivals — minutes for a full sweep. *)

val paper_scale : params
(** The paper's exact fabric: 9 leaves x 16 hosts, 4 spines, 100 CBR
    flows at 0.5 Gb/s, 1/4 Gb/s links. *)

val qvisor_tenants : params -> Qvisor.Tenant.t list
(** The paper's two tenants in [params]' rank units: [pfabric] (id 0,
    ranks up to the 30 MB flow-size cap) and [edf] (id 1, ranks up to
    1.5x the CBR deadline). *)

val ranker : params -> string -> Sched.Ranker.t
(** The rank function of a tenant algorithm in [params]' units
    ([pfabric]/[srpt], [edf], [lstf], [stfq], [fifo_plus]/[fifo+];
    anything else ranks FIFO).  The run ranks its two tenants with it. *)

val fabric : params -> Netsim.Topology.t * Netsim.Routing.t
(** The leaf-spine topology of [params] and its routing. *)

type slo_report = {
  objectives : Qvisor.Slo.objective list;
      (** the derived per-tenant objectives, in tenant-id order *)
  verdicts : (Qvisor.Tenant.t * Engine.Health.state * Qvisor.Slo.status) list;
      (** final health state and audit status per tenant — a run {e fails}
          its SLO gate when any tenant ends [Violating] *)
  health_alerts : int;  (** health state transitions over the run *)
}

type result = {
  scheme : string;
  load : float;
  small_mean_ms : float;
  small_p99_ms : float;
  large_mean_ms : float;
  large_p99_ms : float;
  overall_mean_ms : float;
  flows_started : int;
  flows_completed : int;
  drops : int;
  cbr_deadline_fraction : float;
      (** fraction of CBR packets delivered within deadline ([nan] when
          the scheme carries no CBR tenant) *)
  events_fired : int;  (** simulator events executed during the run *)
  wall_seconds : float;
      (** wall-clock seconds the engine spent draining the event queue —
          [events_fired / wall_seconds] is the engine's events/sec *)
  slo : slo_report option;  (** present iff the run audited SLOs *)
}

val run :
  ?telemetry:Engine.Telemetry.t ->
  ?profiler:Engine.Span.t ->
  ?flight:Netsim.Net.flight_config ->
  ?on_anomaly:(link_id:int -> Engine.Recorder.t -> unit) ->
  ?slo:bool ->
  ?alerts:out_channel ->
  ?on_tick:(float -> unit) ->
  ?perf:bool ->
  params ->
  scheme ->
  (result, Qvisor.Error.t) Stdlib.result
(** Simulate one configuration.  [telemetry] (default: off) instruments
    the fabric ports and — for QVISOR schemes — the pre-processor, and
    records [sim.events_fired] / [sim.wall_seconds] gauges.  [profiler]
    (default: off) wraps the run in a ["fig4.run"] span with
    ["fig4.topology"], ["synthesizer.synthesize"],
    ["preprocessor.compile"], ["net.build"], and ["sim.run"] children.
    [flight]/[on_anomaly] arm the fabric's per-port flight recorders (see
    {!Netsim.Net.create}).

    [slo] (default [false]) turns on the online SLO audit, available only
    for QVISOR pre-processor schemes (objectives are derived from the
    synthesized plan): the run derives per-tenant objectives
    ({!Qvisor.Slo.derive}, with envelopes built from the queue capacity
    and offered loads), streams per-hop enqueue/drop/delay/rank-error
    samples into an auditor, runs the adversarial-workload {!Qvisor.Guard}
    on the pre-processor path, arms the flight recorder (unless [flight]
    was given), and folds all three signals into an {!Engine.Health}
    machine evaluated every 10 simulated milliseconds (the
    {!Qvisor.Audit} wiring the [qvisor serve] daemon shares).  [alerts]
    receives the health machine's NDJSON transition stream; [on_tick]
    runs after each evaluation with the current simulated time (the
    CLI's periodic metrics-emission hook); the final per-tenant verdicts
    land in [result.slo].  With [telemetry],
    each evaluation also mirrors [slo.tenant.<id>.*] and
    [health.tenant.<id>.state] gauges into the registry.

    [perf] (default [true]) — with an enabled [telemetry] registry, the
    run also arms {!Engine.Perf}: per-stage throughput meters on the
    fabric's enqueue/dequeue/preprocess/recorder/SLO-audit paths
    (published as [perf.stage.*] counters and gauges at each SLO
    evaluation tick and at the end of the run) plus [gc.*] gauges
    sampled from [Gc.quick_stat] and a best-effort max-GC-pause monitor.
    [~perf:false] keeps the rest of the instrumentation identical while
    dropping this layer — how the overhead benchmark isolates its cost.
    Fails with the policy/synthesis/deployment error when the scheme's
    QVISOR configuration is invalid — never by raising, so a run can
    execute on a worker domain. *)

val run_exn :
  ?telemetry:Engine.Telemetry.t ->
  ?profiler:Engine.Span.t ->
  params ->
  scheme ->
  result
(** @raise Invalid_argument on configuration errors. *)

type job = {
  index : int;  (** position in the serial (load-major) grid order *)
  job_scheme : scheme;
  job_load : float;
  job_seed : int;
      (** splitmix64-derived from [params.seed] and [index] — a stable
          per-job stream for job-local concerns (e.g. trace sampling)
          regardless of which domain runs the job *)
}

val jobs_of_grid :
  params -> loads:float list -> schemes:scheme list -> job list
(** One job per (load, scheme) grid point, in the order the serial sweep
    used to run them (outer loads, inner schemes). *)

val run_jobs :
  ?jobs:int ->
  ?telemetry_for:(job -> Engine.Telemetry.t) ->
  ?profiler_for:(job -> Engine.Span.t) ->
  ?on_start:(job -> unit) ->
  ?slo:bool ->
  ?perf:bool ->
  params ->
  job list ->
  (result list, Qvisor.Error.t) Stdlib.result
(** Fan the jobs out over {!Engine.Parallel} ([jobs] workers, default
    {!Engine.Parallel.default_jobs}) and fan the results back in, in job
    order — for any worker count the result list is identical to a serial
    run.  [telemetry_for] supplies each job's private registry (merge
    them afterwards with {!Engine.Telemetry.merge_into} in job order for
    worker-count-independent snapshots); [profiler_for] likewise supplies
    each job's private span profiler (merge with {!Engine.Span.merge_into}
    in job order — the merged span {e structure} is then independent of
    the worker count); [on_start] is invoked in the {e worker} domain as a
    job begins, so the callback must be thread-safe.  [slo] (default
    [false]) audits every job's run as in {!run} — final verdicts are
    identical for any worker count.  [perf] defaults to [false] here,
    {e unlike} {!run}: the {!Engine.Perf} gauges are wall-clock rates,
    so publishing them would make merged snapshots differ across worker
    counts, breaking the invariance this function promises — opt in
    only when the registries are inspected per job.  The
    lowest-indexed failing job's error is returned. *)

val sweep :
  ?jobs:int ->
  ?telemetry_for:(job -> Engine.Telemetry.t) ->
  ?profiler_for:(job -> Engine.Span.t) ->
  ?on_start:(job -> unit) ->
  ?slo:bool ->
  ?perf:bool ->
  params ->
  loads:float list ->
  schemes:scheme list ->
  (result list, Qvisor.Error.t) Stdlib.result
(** [run_jobs] over [jobs_of_grid]. *)

val paper_loads : float list
(** 0.2 .. 0.8, the x-axis of Fig. 4. *)

val print_panel :
  Format.formatter -> title:string -> pick:(result -> float) -> result list -> unit
(** Render one Fig. 4 panel: rows = loads, columns = schemes, cells from
    [pick]. *)

val print_fig4 : Format.formatter -> result list -> unit
(** Both panels (small-flow and large-flow mean FCTs) plus a
    completion/drop appendix. *)
