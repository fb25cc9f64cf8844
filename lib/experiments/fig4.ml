type scheme =
  | Fifo_both
  | Pifo_naive
  | Pifo_pfabric_only
  | Qvisor_policy of string

let scheme_name = function
  | Fifo_both -> "FIFO: pFabric and EDF"
  | Pifo_naive -> "PIFO: pFabric and EDF"
  | Pifo_pfabric_only -> "PIFO: pFabric"
  | Qvisor_policy p -> "QVISOR: " ^ p

let paper_schemes =
  [
    Fifo_both;
    Pifo_naive;
    Pifo_pfabric_only;
    Qvisor_policy "edf >> pfabric";
    Qvisor_policy "pfabric + edf";
    Qvisor_policy "pfabric >> edf";
  ]

type params = {
  leaves : int;
  spines : int;
  hosts_per_leaf : int;
  access_rate : float;
  fabric_rate : float;
  link_delay : float;
  queue_capacity_pkts : int;
  load : float;
  cbr_flows : int;
  cbr_rate : float;
  cbr_deadline : float;
  duration : float;
  warmup : float;
  drain : float;
  pfabric_unit_bytes : int;
  edf_unit_seconds : float;
  window : int;
  rto : float;
  seed : int;
  levels : int option;
  backend : Qvisor.Deploy.backend option;
  tree_backend : bool;
  inject_qdisc : (capacity_pkts:int -> Sched.Qdisc.t) option;
}

let quick =
  {
    leaves = 2;
    spines = 2;
    hosts_per_leaf = 4;
    access_rate = 1e9;
    fabric_rate = 4e9;
    link_delay = 1e-6;
    queue_capacity_pkts = 100;
    load = 0.5;
    cbr_flows = 6;
    cbr_rate = 0.5e9;
    cbr_deadline = 2e-3;
    duration = 0.08;
    warmup = 0.02;
    drain = 0.4;
    pfabric_unit_bytes = 1000;
    edf_unit_seconds = 2e-5;
    window = 16;
    rto = 4e-3;
    seed = 1;
    levels = None;
    backend = None;
    tree_backend = false;
    inject_qdisc = None;
  }

let default =
  {
    quick with
    leaves = 3;
    spines = 2;
    hosts_per_leaf = 8;
    cbr_flows = 17;
    duration = 0.2;
    warmup = 0.05;
    drain = 0.6;
  }

let paper_scale =
  {
    quick with
    leaves = 9;
    spines = 4;
    hosts_per_leaf = 16;
    cbr_flows = 100;
    duration = 1.0;
    warmup = 0.2;
    drain = 1.0;
  }

type slo_report = {
  objectives : Qvisor.Slo.objective list;
  verdicts : (Qvisor.Tenant.t * Engine.Health.state * Qvisor.Slo.status) list;
  health_alerts : int;
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
  events_fired : int;
  wall_seconds : float;
  slo : slo_report option;
}

let pfabric_tenant_id = 0

let edf_tenant_id = 1

(* QVISOR tenant declarations for this workload: pFabric ranks span the
   remaining-size range up to the flow-size cap; EDF ranks span the
   deadline budget in rank units. *)
let qvisor_tenants params =
  let pfabric_hi = 30_000_000 / params.pfabric_unit_bytes in
  (* CBR budgets are spread up to 1.5x the base deadline. *)
  let edf_hi =
    int_of_float (1.5 *. params.cbr_deadline /. params.edf_unit_seconds)
  in
  [
    Qvisor.Tenant.make ~algorithm:"pfabric" ~rank_lo:0 ~rank_hi:pfabric_hi
      ~id:pfabric_tenant_id ~name:"pfabric" ();
    Qvisor.Tenant.make ~algorithm:"edf" ~rank_lo:0 ~rank_hi:edf_hi
      ~id:edf_tenant_id ~name:"edf" ();
  ]

let ranker params algorithm =
  match algorithm with
  | "pfabric" | "srpt" ->
    Sched.Ranker.pfabric ~unit_bytes:params.pfabric_unit_bytes ()
  | "edf" ->
    Sched.Ranker.edf ~unit_seconds:params.edf_unit_seconds
      ~horizon:(1.5 *. params.cbr_deadline)
      ()
  | "lstf" -> Sched.Ranker.lstf ~line_rate:params.access_rate ()
  | "stfq" -> Sched.Ranker.stfq ()
  | "fifo_plus" | "fifo+" -> Sched.Ranker.fifo_plus ()
  | _ -> Sched.Ranker.fifo ()

let fabric params =
  let topo =
    Netsim.Topology.leaf_spine ~leaves:params.leaves ~spines:params.spines
      ~hosts_per_leaf:params.hosts_per_leaf ~access_rate:params.access_rate
      ~fabric_rate:params.fabric_rate ~link_delay:params.link_delay
  in
  (topo, Netsim.Routing.compute topo)

(* Offered loads in bytes/s, the rates of the audit's arrival envelopes;
   the audit's link rate is the access rate, the slowest (binding) link
   of the fabric. *)
let offered_rate params (tn : Qvisor.Tenant.t) =
  if tn.Qvisor.Tenant.id = edf_tenant_id then params.cbr_rate /. 8.
  else params.load *. params.access_rate /. 8.

(* Simulated seconds between SLO evaluations. *)
let slo_interval = 0.01

(* Every field with the bounds its consumer enforces (topology, queues,
   workload, transport, rankers, synthesizer), checked before any work so
   a bad value is a typed error rather than an exception deep in a run. *)
let validate p =
  let int name v ~lo ~hi =
    if v >= lo && v <= hi then None
    else if hi = max_int then Some (Printf.sprintf "%s = %d, must be >= %d" name v lo)
    else Some (Printf.sprintf "%s = %d, must be in [%d, %d]" name v lo hi)
  in
  let float name v ~positive =
    if Float.is_finite v && if positive then v > 0. else v >= 0. then None
    else
      Some
        (Printf.sprintf "%s = %g, must be finite and %s" name v
           (if positive then "> 0" else ">= 0"))
  in
  let fields =
    [
      int "leaves" p.leaves ~lo:1 ~hi:max_int;
      int "spines" p.spines ~lo:1 ~hi:max_int;
      int "hosts_per_leaf" p.hosts_per_leaf ~lo:1 ~hi:max_int;
      int "leaves x hosts_per_leaf" (p.leaves * p.hosts_per_leaf) ~lo:2
        ~hi:max_int;
      float "access_rate" p.access_rate ~positive:true;
      float "fabric_rate" p.fabric_rate ~positive:true;
      float "link_delay" p.link_delay ~positive:false;
      int "queue_capacity_pkts" p.queue_capacity_pkts ~lo:1
        ~hi:((1 lsl 21) - 2);
      float "load" p.load ~positive:true;
      int "cbr_flows" p.cbr_flows ~lo:1 ~hi:max_int;
      float "cbr_rate" p.cbr_rate ~positive:true;
      float "cbr_deadline" p.cbr_deadline ~positive:true;
      float "duration" p.duration ~positive:false;
      float "warmup" p.warmup ~positive:false;
      float "drain" p.drain ~positive:false;
      int "pfabric_unit_bytes" p.pfabric_unit_bytes ~lo:1 ~hi:max_int;
      float "edf_unit_seconds" p.edf_unit_seconds ~positive:true;
      int "window" p.window ~lo:1 ~hi:max_int;
      float "rto" p.rto ~positive:true;
      Option.bind p.levels (int "levels" ~lo:1 ~hi:max_int);
    ]
  in
  match List.find_map Fun.id fields with
  | None -> Ok ()
  | Some msg -> Error (Qvisor.Error.Config msg)

let run ?(telemetry = Engine.Telemetry.disabled)
    ?(profiler = Engine.Span.disabled) ?flight ?on_anomaly ?(slo = false)
    ?alerts ?(on_tick = fun (_ : float) -> ()) ?(perf = true) params scheme =
  let ( let* ) = Result.bind in
  let* () = validate params in
  Engine.Span.with_ profiler ~name:"fig4.run" @@ fun () ->
  Sched.Packet.reset_uid_counter 0;
  let num_hosts = params.leaves * params.hosts_per_leaf in
  let topo, routing =
    Engine.Span.with_ profiler ~name:"fig4.topology" @@ fun () -> fabric params
  in
  let sim = Engine.Sim.create ~profiler () in
  (* The perf layer (stage meters, GC gauges, pause monitor) rides on the
     telemetry registry; [~perf:false] isolates its cost for the overhead
     benchmark while keeping the rest of the instrumentation identical. *)
  let meters =
    if perf && Engine.Telemetry.is_enabled telemetry then
      Engine.Perf.Meters.create ()
    else Engine.Perf.Meters.disabled
  in
  let pause =
    if Engine.Perf.Meters.is_enabled meters then Engine.Perf.Pause.start ()
    else None
  in
  let rng = Engine.Rng.create ~seed:params.seed in
  let transport = Netsim.Transport.create ~sim () in
  let* preprocess, make_qdisc, audit =
    let fifo _ = Sched.Fifo_queue.create ~capacity_pkts:params.queue_capacity_pkts () in
    (* Exact PIFO semantics from the min-max-heap core; raw pFabric
       ranks (flow-size cap / unit bytes) fit the default rank space, and
       anything beyond it is clamped for ordering only. *)
    let pifo _ =
      Sched.Bucket_queue.create ~name:"pifo"
        ~capacity_pkts:params.queue_capacity_pkts ()
    in
    let* () =
      match scheme with
      | Qvisor_policy _ when not params.tree_backend -> Ok ()
      | _ when slo ->
        Error
          (Qvisor.Error.Config
             "slo auditing needs a QVISOR pre-processor scheme (it derives \
              objectives from the synthesized plan)")
      | _ -> Ok ()
    in
    match scheme with
    | Fifo_both -> Ok (None, fifo, None)
    | Pifo_naive | Pifo_pfabric_only -> Ok (None, pifo, None)
    | Qvisor_policy policy_str when params.tree_backend ->
      (* §5 alternative: compile the policy into a PIFO tree per port; raw
         ranks go straight in, no pre-processor.  Build one tree up front
         so any policy/deployment defect surfaces here as an [Error]; the
         per-port builds below can then no longer fail. *)
      let* policy = Qvisor.Policy.parse policy_str in
      let build () =
        Qvisor.Deploy.pifo_tree_of_policy ~tenants:(qvisor_tenants params)
          ~policy ~capacity_pkts:params.queue_capacity_pkts ()
      in
      let* _probe = build () in
      let make_tree _ =
        match build () with
        | Ok q -> q
        | Error e -> invalid_arg ("Fig4: tree backend: " ^ Qvisor.Error.to_string e)
      in
      Ok (None, make_tree, None)
    | Qvisor_policy policy_str ->
      let config =
        { Qvisor.Synthesizer.default_config with levels = params.levels }
      in
      let* policy = Qvisor.Policy.parse policy_str in
      let tenants = qvisor_tenants params in
      let* plan =
        Qvisor.Synthesizer.synthesize ~profiler ~config ~tenants ~policy ()
      in
      let audit =
        if not slo then None
        else
          Some
            (Qvisor.Audit.create ~sim ~telemetry
               ~health:(Engine.Health.create ?alerts ())
               ~guard:true ~capacity_pkts:params.queue_capacity_pkts
               ~link_rate:params.access_rate ~rho:(offered_rate params) plan)
      in
      let pre =
        Qvisor.Preprocessor.of_plan ~profiler ~telemetry
          ?on_rank_error:(Option.map Qvisor.Audit.on_rank_error audit)
          ~rank_error_sample:8 plan
      in
      let* qdisc =
        match params.backend with
        | None -> Ok pifo
        | Some backend ->
          (* Validate the deployment once; per-port instantiation below
             repeats a construction that is now known to succeed. *)
          let* _probe = Qvisor.Deploy.instantiate ~plan backend in
          Ok (fun _ -> Qvisor.Deploy.instantiate_exn ~plan backend)
      in
      let preprocess =
        match audit with
        | None -> Qvisor.Preprocessor.process pre
        | Some a -> Qvisor.Audit.preprocess a pre
      in
      Ok (Some preprocess, qdisc, audit)
  in
  (* Fault injection overrides the per-port scheduler wholesale — the
     point is to watch the SLO layer catch a backend that misbehaves. *)
  let make_qdisc =
    match params.inject_qdisc with
    | None -> make_qdisc
    | Some f -> fun _ -> f ~capacity_pkts:params.queue_capacity_pkts
  in
  (* SLO runs arm the flight recorder by default: the drop-spike trigger
     is one of the three fused health signals. *)
  let flight =
    match flight with
    | Some _ -> flight
    | None -> if Option.is_some audit then Some Netsim.Net.default_flight else None
  in
  let on_anomaly ~link_id recorder =
    Option.iter (fun f -> f ~link_id recorder) on_anomaly;
    Option.iter (fun a -> Qvisor.Audit.on_drop_spike a ~link_id) audit
  in
  let net =
    Netsim.Net.create ~sim ~topo ~routing ~make_qdisc ?preprocess
      ?on_enqueue:(Option.map Qvisor.Audit.on_enqueue audit)
      ?on_dequeue:(Option.map Qvisor.Audit.on_dequeue audit)
      ?on_drop:(Option.map Qvisor.Audit.on_drop audit)
      ?on_tie_inversion:(Option.map Qvisor.Audit.on_tie_inversion audit)
      ~telemetry ~profiler ?flight ~on_anomaly ~meters
      ~deliver:(Netsim.Transport.deliver transport)
      ()
  in
  Netsim.Transport.attach transport net;
  (* Periodic SLO evaluation: fold the auditor's signal, the guard's
     verdict and recorder incidents into the health machine, and mirror
     the state into gauges so [--metrics-out] exposes it. *)
  Option.iter
    (fun a ->
      let until = params.duration +. params.drain in
      let rec tick () =
        Qvisor.Audit.evaluate a;
        if Engine.Perf.Meters.is_enabled meters then begin
          Engine.Perf.Meters.publish meters telemetry;
          Engine.Perf.sample_gc ?pause telemetry
        end;
        on_tick (Engine.Sim.now sim);
        if Engine.Sim.now sim +. slo_interval <= until then
          Engine.Sim.schedule_after_ sim ~delay:slo_interval tick
      in
      Engine.Sim.schedule_after_ sim ~delay:slo_interval tick)
    audit;
  (* Tenant 0: pFabric data-mining flows (always present). *)
  let metrics = Netsim.Metrics.create () in
  let on_complete (r : Netsim.Transport.flow_result) =
    if r.Netsim.Transport.started_at >= params.warmup then
      Netsim.Metrics.record metrics r
  in
  let arrivals =
    Netsim.Workload.poisson_open_loop ~sim ~rng:(Engine.Rng.split rng)
      ~transport ~tenant:pfabric_tenant_id ~ranker:(ranker params "pfabric")
      ~num_hosts ~load:params.load ~access_rate:params.access_rate
      ~dist:(Netsim.Workload.data_mining ()) ~window:params.window
      ~rto:params.rto ~until:params.duration ~on_complete ()
  in
  (* Tenant 1: EDF CBR flows (absent in the pFabric-only ideal). *)
  let cbr_stats =
    match scheme with
    | Pifo_pfabric_only -> []
    | Fifo_both | Pifo_naive | Qvisor_policy _ ->
      Netsim.Workload.cbr_tenant ~sim ~rng:(Engine.Rng.split rng) ~transport
        ~tenant:edf_tenant_id ~ranker:(ranker params "edf") ~num_hosts
        ~flows:params.cbr_flows ~rate:params.cbr_rate
        ~deadline_budget:params.cbr_deadline
        ~until:(params.duration +. params.drain)
        ()
  in
  Engine.Sim.run ~until:(params.duration +. params.drain) sim;
  let events_fired = Engine.Sim.events_fired sim in
  let wall_seconds = Engine.Sim.busy_seconds sim in
  if Engine.Telemetry.is_enabled telemetry then begin
    Engine.Telemetry.Gauge.set
      (Engine.Telemetry.gauge telemetry "sim.events_fired")
      (float_of_int events_fired);
    Engine.Telemetry.Gauge.set
      (Engine.Telemetry.gauge telemetry "sim.wall_seconds")
      wall_seconds
  end;
  if Engine.Perf.Meters.is_enabled meters then begin
    Engine.Perf.Meters.publish meters telemetry;
    Engine.Perf.sample_gc ?pause telemetry
  end;
  let cbr_deadline_fraction =
    match cbr_stats with
    | [] -> nan
    | stats ->
      let sent =
        List.fold_left (fun a s -> a + s.Netsim.Transport.sent) 0 stats
      in
      let met =
        List.fold_left (fun a s -> a + s.Netsim.Transport.deadline_met) 0 stats
      in
      if sent = 0 then nan else float_of_int met /. float_of_int sent
  in
  let slo_report =
    Option.map
      (fun a ->
        Qvisor.Audit.evaluate a;
        let auditor = Qvisor.Audit.slo a in
        let health = Qvisor.Audit.health a in
        {
          objectives = Qvisor.Slo.objectives auditor;
          verdicts =
            List.map
              (fun (st : Qvisor.Slo.status) ->
                let tn = st.Qvisor.Slo.objective.Qvisor.Slo.tenant in
                (tn, Engine.Health.state health ~id:tn.Qvisor.Tenant.id, st))
              (Qvisor.Slo.statuses auditor);
          health_alerts = Engine.Health.alerts_emitted health;
        })
      audit
  in
  Ok
    {
      scheme = scheme_name scheme;
      load = params.load;
      small_mean_ms = Netsim.Metrics.mean_fct_ms metrics Netsim.Metrics.Small;
      small_p99_ms = Netsim.Metrics.p99_fct_ms metrics Netsim.Metrics.Small;
      large_mean_ms = Netsim.Metrics.mean_fct_ms metrics Netsim.Metrics.Large;
      large_p99_ms = Netsim.Metrics.p99_fct_ms metrics Netsim.Metrics.Large;
      overall_mean_ms = 1e3 *. Engine.Stats.mean (Netsim.Metrics.overall metrics);
      flows_started = arrivals.Netsim.Workload.flows_started;
      flows_completed = Netsim.Metrics.completed metrics;
      drops = Netsim.Net.total_drops net;
      cbr_deadline_fraction;
      events_fired;
      wall_seconds;
      slo = slo_report;
    }

let run_exn ?profiler params scheme =
  match run ?profiler params scheme with
  | Ok r -> r
  | Error e -> invalid_arg ("Fig4.run: " ^ Qvisor.Error.to_string e)

(* ------------------------------------------------------------------ *)
(* Parallel sweep                                                     *)
(* ------------------------------------------------------------------ *)

type job = { index : int; job_scheme : scheme; job_load : float; job_seed : int }

let jobs_of_grid params ~loads ~schemes =
  (* Outer loop over loads, inner over schemes — the same order the old
     serial sweep produced, so result lists (and any CSV written from
     them) are independent of how the jobs are later scheduled. *)
  List.concat_map (fun load -> List.map (fun s -> (load, s)) schemes) loads
  |> List.mapi (fun index (load, scheme) ->
         {
           index;
           job_scheme = scheme;
           job_load = load;
           job_seed = Engine.Rng.derive ~seed:params.seed index;
         })

let run_jobs ?jobs ?(telemetry_for = fun (_ : job) -> Engine.Telemetry.disabled)
    ?(profiler_for = fun (_ : job) -> Engine.Span.disabled)
    ?(on_start = fun (_ : job) -> ()) ?(slo = false) params jobs_list =
  let params_of job : params = { params with load = job.job_load } in
  (* Refuse a bad parameter before any job starts. *)
  let valid =
    List.fold_left
      (fun ok j -> Result.bind ok (fun () -> validate (params_of j)))
      (Ok ()) jobs_list
  in
  match valid with
  | Error e -> Error e
  | Ok () ->
    (* No perf layer, unlike [run]'s default: its gauges are wall-clock
       rates, so merged snapshots would no longer be identical across
       worker counts — the invariant parallel sweeps promise. *)
    let outcomes =
      Engine.Parallel.map ?jobs
        (fun job ->
          on_start job;
          run
            ~telemetry:(telemetry_for job)
            ~profiler:(profiler_for job)
            ~slo ~perf:false (params_of job) job.job_scheme)
        jobs_list
    in
    (* Surface the lowest-indexed failure, mirroring what a serial run
       would have hit first. *)
    let rec collect acc = function
      | [] -> Ok (List.rev acc)
      | Ok r :: rest -> collect (r :: acc) rest
      | Error e :: _ -> Error e
    in
    collect [] outcomes

let sweep ?jobs ?on_start ?slo params ~loads ~schemes =
  run_jobs ?jobs ?on_start ?slo params
    (jobs_of_grid params ~loads ~schemes)

let paper_loads = [ 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8 ]

let print_panel ppf ~title ~pick results =
  let loads = List.sort_uniq compare (List.map (fun r -> r.load) results) in
  let schemes =
    List.fold_left
      (fun acc r -> if List.mem r.scheme acc then acc else acc @ [ r.scheme ])
      [] results
  in
  Format.fprintf ppf "@[<v>%s@," title;
  Format.fprintf ppf "%-6s" "load";
  List.iter (fun s -> Format.fprintf ppf " | %28s" s) schemes;
  Format.pp_print_cut ppf ();
  List.iter
    (fun load ->
      Format.fprintf ppf "%-6.2f" load;
      List.iter
        (fun s ->
          match
            List.find_opt (fun r -> r.load = load && r.scheme = s) results
          with
          | Some r -> Format.fprintf ppf " | %28.3f" (pick r)
          | None -> Format.fprintf ppf " | %28s" "-")
        schemes;
      Format.pp_print_cut ppf ())
    loads;
  Format.fprintf ppf "@]"

let print_fig4 ppf results =
  print_panel ppf
    ~title:"Fig. 4a — pFabric mean FCT (ms), small flows (0, 100 KB)"
    ~pick:(fun r -> r.small_mean_ms)
    results;
  Format.pp_print_newline ppf ();
  print_panel ppf
    ~title:"Fig. 4b — pFabric mean FCT (ms), large flows [1 MB, inf)"
    ~pick:(fun r -> r.large_mean_ms)
    results;
  Format.pp_print_newline ppf ();
  Format.fprintf ppf "@[<v>appendix — completions / drops / CBR deadline hit-rate@,";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "load %.2f %-30s completed %5d/%5d drops %7d cbr-ok %s@," r.load
        r.scheme r.flows_completed r.flows_started r.drops
        (if Float.is_nan r.cbr_deadline_fraction then "-"
         else Printf.sprintf "%.3f" r.cbr_deadline_fraction))
    results;
  Format.fprintf ppf "@]"
