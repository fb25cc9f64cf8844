(* The two Fig. 4 workloads: the quick-scale sweep and the audited
   default-scale point, untraced (end-to-end metrics) and traced (per-layer
   metrics from a composition of the same fabric). *)

open Bcommon
module F = Experiments.Fig4

type workload = {
  name : string;
  params : F.params;
  loads : float list;
  schemes : F.scheme list;
  audited : bool;
      (** the instrument stack of [experiments single --slo --telemetry] *)
}

let sweep_workload ~smoke ~seed =
  let base = { F.quick with seed } in
  {
    name = "fig4-sweep";
    params = (if smoke then { base with duration = 0.02; drain = 0.05 } else base);
    loads = (if smoke then [ 0.5 ] else [ 0.2; 0.5; 0.8 ]);
    schemes = F.paper_schemes;
    audited = false;
  }

let audited_workload ~smoke ~seed =
  let base = if smoke then F.quick else F.default in
  let params = { base with seed; load = 0.8 } in
  {
    name = "fig4-audited";
    params =
      (if smoke then { params with duration = 0.03; drain = 0.1 } else params);
    loads = [ 0.8 ];
    schemes = [ F.Qvisor_policy "pfabric >> edf" ];
    audited = true;
  }

(* The simulated statistics a run must reproduce exactly, as one string
   per point: floats print with every digit so equality is bitwise. *)
let fingerprint (r : F.result) =
  Printf.sprintf
    "%s|load=%.2f|small=%.17g/%.17g|large=%.17g/%.17g|flows=%d/%d|drops=%d|cbr=%.17g|events=%d"
    r.F.scheme r.F.load r.F.small_mean_ms r.F.small_p99_ms r.F.large_mean_ms
    r.F.large_p99_ms r.F.flows_completed r.F.flows_started r.F.drops
    r.F.cbr_deadline_fraction r.F.events_fired

let simulated_seconds (w : workload) =
  float_of_int (List.length w.loads * List.length w.schemes)
  *. (w.params.F.duration +. w.params.F.drain)

(* ------------------------------------------------------------------ *)
(* Untraced passes                                                    *)
(* ------------------------------------------------------------------ *)

type pass = {
  results : F.result list;
  segments : (float * float) list;
      (** host wall and process CPU seconds of each segment at reference
          speed (see {!Bcommon.kernel}): the sweep's own set-up, then one
          segment per Fig4 call; for the audited point, one per 10 ms SLO
          evaluation interval *)
  raw_wall : float;  (** host seconds of the pass, as the clock read them *)
  telemetry : Engine.Telemetry.t;
}

(* Run [f mark], where each [mark ()] ends a segment and starts the next,
   with a calibration kernel at every mark, outside any segment.  Each
   segment is scaled by the mean speed of the kernels that bracket it. *)
let segmented f =
  let marks = ref [] in
  let mark () =
    let t0 = now () and c0 = cpu_now () in
    kernel ();
    let t1 = now () and c1 = cpu_now () in
    marks := (t0, c0, t1, c1) :: !marks
  in
  mark ();
  let v = f mark in
  mark ();
  let rec segments = function
    | (t0, _, t1, c1) :: ((t0', c0', t1', _) :: _ as rest) ->
      let k = 0.5 *. (t1 -. t0 +. (t1' -. t0')) in
      (t0' -. t1, c0' -. c1, scale_of k) :: segments rest
    | _ -> []
  in
  (v, segments (List.rev !marks))

let run_pass (w : workload) =
  let telemetry =
    if w.audited then Engine.Telemetry.create () else Engine.Telemetry.disabled
  in
  let results, segs =
    segmented (fun mark ->
        if w.audited then
          [
            get
              (F.run ~slo:true ~telemetry
                 ~on_tick:(fun _ -> mark ())
                 w.params (List.hd w.schemes));
          ]
        else
          get
            (F.sweep ~jobs:1
               ~on_start:(fun _ -> mark ())
               w.params ~loads:w.loads ~schemes:w.schemes))
  in
  {
    results;
    segments = List.map (fun (dw, dc, sc) -> (dw *. sc, dc *. sc)) segs;
    raw_wall = sum (List.map (fun (dw, _, _) -> dw) segs);
    telemetry;
  }

(* Set-up cost of the workload's Fig4 calls: each point run with no
   simulated time at all, so the call does topology, routing, synthesis,
   pre-processor compilation and fabric build and nothing else.  Process
   CPU seconds, which time the hypervisor steals from the vCPU does not
   inflate (it runs at 5-10% and varies between runs on the reference
   machine), scaled by a kernel run just before the call; the median of
   [reps] calls per point, summed over the pass's points. *)
let setup_seconds (w : workload) ~reps =
  let empty = { w.params with F.duration = 0.; warmup = 0.; drain = 0. } in
  let points =
    List.concat_map (fun load -> List.map (fun s -> (load, s)) w.schemes) w.loads
  in
  List.map
    (fun (load, scheme) ->
      List.init reps (fun _ ->
          let telemetry =
            if w.audited then Engine.Telemetry.create ()
            else Engine.Telemetry.disabled
          in
          let sc = scale_of (kernel_seconds ()) in
          let c0 = cpu_now () in
          let r = get (F.run ~slo:w.audited ~telemetry { empty with F.load } scheme) in
          (cpu_now () -. c0 -. r.F.wall_seconds) *. sc)
      |> median)
    points
  |> sum

(* What a reader of the pass's output gets: the Fig. 4 CSV and panels, and
   for the audited point the Prometheus exposition of its registry. *)
let render (w : workload) (p : pass) =
  ( Experiments.Export.fig4_to_csv p.results,
    Format.asprintf "%a" F.print_fig4 p.results,
    if w.audited then Engine.Exposition.render p.telemetry else "" )

let check_render l (w : workload) (p : pass) =
  let csv, panels, exposition = render w p in
  let rows = List.filter (fun s -> s <> "") (String.split_on_char '\n' csv) in
  check l
    (List.length rows = List.length p.results + 1)
    "fig4 CSV has one row per point plus a header";
  check l (String.length panels > 0) "fig4 panels render";
  if w.audited then
    check l
      (String.ends_with ~suffix:"# EOF\n" exposition
      && Result.is_ok (Engine.Exposition.parse exposition))
      "audited registry exposition parses strictly and ends in # EOF"

(* One rendering sample: the mean of [batch] renderings, so a sample is
   long enough to time steadily, at reference speed. *)
let render_ms w p ~samples ~batch =
  List.init samples (fun _ ->
      let k0 = kernel_seconds () in
      let t0 = now () in
      for _ = 1 to batch do
        ignore (Sys.opaque_identity (render w p))
      done;
      let t1 = now () in
      let sc = scale_of (0.5 *. (k0 +. kernel_seconds ())) in
      1e3 *. (t1 -. t0) *. sc /. float_of_int batch)

(* ------------------------------------------------------------------ *)
(* Expected values                                                    *)
(* ------------------------------------------------------------------ *)

let expected_file = "perfbench/expected.json"

let expected_for ~workload ~seed =
  match read_file expected_file with
  | exception Sys_error _ -> None
  | text -> (
    match Engine.Json.of_string text with
    | Error _ -> None
    | Ok json ->
      Option.bind (Engine.Json.member workload json) (fun j ->
          Option.bind
            (Engine.Json.member (string_of_int seed) j)
            (fun j ->
              Option.map
                (List.filter_map Engine.Json.to_str)
                (Engine.Json.to_list j))))

(* The simulated statistics of one untraced pass, as the JSON list
   [expected.json] holds for a workload and seed. *)
let record (w : workload) =
  Engine.Json.to_string
    (Engine.Json.List
       (List.map (fun r -> Engine.Json.String (fingerprint r)) (run_pass w).results))

let check_prints l ~what ~expected got =
  check l
    (List.length expected = List.length got)
    (Printf.sprintf "%s: %d points, expected %d" what (List.length got)
       (List.length expected));
  List.iteri
    (fun i e ->
      match List.nth_opt got i with
      | Some g ->
        check l (g = e) (Printf.sprintf "%s: got %s, expected %s" what g e)
      | None -> ())
    expected

(* ------------------------------------------------------------------ *)
(* Traced composition                                                 *)
(* ------------------------------------------------------------------ *)

(* The same fabric [Fig4.run] builds, composed from the public Netsim /
   Qvisor / Sched constructors so the benchmark can wrap the hooks Fig4
   keeps internal.  It must reproduce [Fig4.run]'s simulated statistics
   exactly; the traced run checks that it does. *)

module L = struct
  let topology = Tracer.layer "fig4.topology"

  let synthesize = Tracer.layer "qvisor.synthesizer.synthesize"

  let compile = Tracer.layer "qvisor.preprocessor.compile"

  let net_build = Tracer.layer "netsim.net.build"

  let sim_run = Tracer.layer "engine.sim.run"

  let enqueue = Tracer.layer "sched.enqueue"

  let dequeue = Tracer.layer "sched.dequeue"

  (* The fabric's own drop handling (recorder, telemetry), called back from
     inside the qdisc: timed so it is not charged to the qdisc, but left
     in the engine's self time. *)
  let drop_cb = Tracer.layer "netsim.net.drop_callback"

  let preprocess = Tracer.layer "qvisor.preprocessor.process"

  let guard = Tracer.layer "qvisor.guard.process"

  let slo = Tracer.layer "qvisor.slo.hook"

  let deliver = Tracer.layer "netsim.transport.deliver"

  let per_hop = [ enqueue; dequeue; preprocess; guard; slo; deliver ]

  let phases = [ topology; synthesize; compile; net_build; sim_run ]

  let all = (drop_cb :: phases) @ per_hop
end

(* Queue length seen by each offered packet, summed. *)
let depth_sum = ref 0

(* The scheme's own backend, same constructor, name and capacity, with
   its enqueue/dequeue timed. *)
let wrap_qdisc (q : Sched.Qdisc.t) =
  let last_cb = ref ignore in
  let wrapped_cb = ref ignore in
  let enqueue_drop p cb =
    depth_sum := !depth_sum + q.Sched.Qdisc.length ();
    if cb != !last_cb then begin
      last_cb := cb;
      wrapped_cb := Tracer.wrap L.drop_cb cb
    end;
    let wcb = !wrapped_cb in
    Tracer.wrap L.enqueue (fun p -> q.Sched.Qdisc.enqueue_drop p wcb) p
  in
  Sched.Qdisc.make ~name:q.Sched.Qdisc.name ~enqueue_drop
    ~dequeue:(fun () ->
      let r = ref None in
      Tracer.wrap L.dequeue (fun () -> r := q.Sched.Qdisc.dequeue ()) ();
      !r)
    ~peek:q.Sched.Qdisc.peek ~length:q.Sched.Qdisc.length
    ~bytes:q.Sched.Qdisc.bytes ~drops:q.Sched.Qdisc.drops

(* Fig4's tenant declarations and arrival envelopes (not exported). *)
let qvisor_tenants (params : F.params) =
  let pfabric_hi = 30_000_000 / params.F.pfabric_unit_bytes in
  let edf_hi =
    int_of_float (1.5 *. params.F.cbr_deadline /. params.F.edf_unit_seconds)
  in
  [
    Qvisor.Tenant.make ~algorithm:"pfabric" ~rank_lo:0 ~rank_hi:pfabric_hi ~id:0
      ~name:"pfabric" ();
    Qvisor.Tenant.make ~algorithm:"edf" ~rank_lo:0 ~rank_hi:edf_hi ~id:1
      ~name:"edf" ();
  ]

let slo_envelopes (params : F.params) =
  let sigma = float_of_int (params.F.queue_capacity_pkts * 1518) in
  [
    ( 0,
      Qvisor.Latency.envelope ~sigma
        ~rho:(params.F.load *. params.F.access_rate /. 8.) );
    (1, Qvisor.Latency.envelope ~sigma ~rho:(params.F.cbr_rate /. 8.));
  ]

type slo_rt = {
  auditor : Qvisor.Slo.t;
  health : Engine.Health.t;
  guard : Qvisor.Guard.t;
}

(* Fig4's drop-spike attribution: the tenant whose drop rate since the
   previous incident overran its budget the most gets a pending
   recorder incident, folded into health at the next evaluation. *)
let anomaly_handler slo_rt pending =
  let prev = Hashtbl.create 4 in
  fun ~link_id _recorder ->
    match slo_rt with
    | None -> ()
    | Some rt ->
      let worst = ref (-1, 0, 0.) in
      List.iter
        (fun (st : Qvisor.Slo.status) ->
          let id = st.Qvisor.Slo.objective.Qvisor.Slo.tenant.Qvisor.Tenant.id in
          let pd, pa = Option.value (Hashtbl.find_opt prev id) ~default:(0, 0) in
          let ddrops = st.Qvisor.Slo.drops - pd in
          let dattempts = st.Qvisor.Slo.attempts - pa in
          Hashtbl.replace prev id (st.Qvisor.Slo.drops, st.Qvisor.Slo.attempts);
          let rate = float_of_int ddrops /. float_of_int (max 1 dattempts) in
          let over = rate /. st.Qvisor.Slo.objective.Qvisor.Slo.drop_budget in
          let _, _, worst_over = !worst in
          if ddrops > 0 && over > worst_over then worst := (id, ddrops, over))
        (Qvisor.Slo.statuses rt.auditor);
      let id, ddrops, over = !worst in
      if over > 1. then
        let worse =
          match Hashtbl.find_opt pending id with
          | Some (_, prev_over) -> over > prev_over
          | None -> true
        in
        if worse then
          Hashtbl.replace pending id
            ( Printf.sprintf
                "port %d drop spike (+%d tenant drops, %.1fx over budget)"
                link_id ddrops over,
              over )

(* Fig4's periodic SLO evaluation: audit signal, guard verdict and
   recorder incidents into the health machine, mirrored into gauges. *)
let schedule_evaluation ~sim ~telemetry ~meters ~pause ~until ~tenants rt pending
    =
  let mirror (tn : Qvisor.Tenant.t) =
    let id = tn.Qvisor.Tenant.id in
    (match Qvisor.Slo.status rt.auditor ~tenant_id:id with
    | None -> ()
    | Some st ->
      let set name v =
        Engine.Telemetry.Gauge.set
          (Engine.Telemetry.gauge telemetry
             (Printf.sprintf "slo.tenant.%d.%s" id name))
          v
      in
      set "fast_burn" st.Qvisor.Slo.fast_burn;
      set "slow_burn" st.Qvisor.Slo.slow_burn;
      set "budget_remaining" st.Qvisor.Slo.budget_remaining;
      set "delay_quantile_seconds" st.Qvisor.Slo.observed_delay);
    Engine.Telemetry.Gauge.set
      (Engine.Telemetry.gauge telemetry
         (Printf.sprintf "health.tenant.%d.state" id))
      (match Engine.Health.state rt.health ~id with
      | Engine.Health.Healthy -> 0.
      | Engine.Health.Degraded -> 1.
      | Engine.Health.Violating -> 2.)
  in
  let evaluate_all () =
    let now = Engine.Sim.now sim in
    List.iter
      (fun (tn : Qvisor.Tenant.t) ->
        let id = tn.Qvisor.Tenant.id in
        let signal, detail = Qvisor.Slo.evaluate rt.auditor ~tenant_id:id in
        Engine.Health.observe rt.health ~id ~time:now ~source:"slo" ~detail
          signal;
        (match Qvisor.Guard.verdict rt.guard ~tenant_id:id with
        | Qvisor.Guard.Malicious _ ->
          Engine.Health.observe rt.health ~id ~time:now ~source:"guard"
            ~detail:"guard verdict: malicious" Engine.Health.Breach
        | Qvisor.Guard.Suspicious _ ->
          Engine.Health.observe rt.health ~id ~time:now ~source:"guard"
            ~detail:"guard verdict: suspicious" Engine.Health.Warn
        | Qvisor.Guard.Conforming -> ());
        (match Hashtbl.find_opt pending id with
        | Some (detail, _) ->
          Hashtbl.remove pending id;
          Engine.Health.observe rt.health ~id ~time:now ~source:"recorder"
            ~detail Engine.Health.Warn
        | None -> ());
        if Engine.Telemetry.is_enabled telemetry then mirror tn)
      tenants
  in
  let interval = 0.01 in
  let rec tick () =
    evaluate_all ();
    if Engine.Perf.Meters.is_enabled meters then begin
      Engine.Perf.Meters.publish meters telemetry;
      Engine.Perf.sample_gc ?pause telemetry
    end;
    if Engine.Sim.now sim +. interval <= until then
      Engine.Sim.schedule_after_ sim ~delay:interval tick
  in
  Engine.Sim.schedule_after_ sim ~delay:interval tick

let compose ~slo ~telemetry (params : F.params) scheme =
  let num_hosts = params.F.leaves * params.F.hosts_per_leaf in
  let topo, routing =
    Tracer.phase L.topology (fun () ->
        let topo =
          Netsim.Topology.leaf_spine ~leaves:params.F.leaves
            ~spines:params.F.spines ~hosts_per_leaf:params.F.hosts_per_leaf
            ~access_rate:params.F.access_rate ~fabric_rate:params.F.fabric_rate
            ~link_delay:params.F.link_delay
        in
        (topo, Netsim.Routing.compute topo))
  in
  let sim = Engine.Sim.create () in
  let meters =
    if Engine.Telemetry.is_enabled telemetry then Engine.Perf.Meters.create ()
    else Engine.Perf.Meters.disabled
  in
  let pause =
    if Engine.Perf.Meters.is_enabled meters then Engine.Perf.Pause.start ()
    else None
  in
  let rng = Engine.Rng.create ~seed:params.F.seed in
  let transport = Netsim.Transport.create ~sim () in
  let cap = params.F.queue_capacity_pkts in
  let fifo _ = wrap_qdisc (Sched.Fifo_queue.create ~capacity_pkts:cap ()) in
  let pifo _ =
    wrap_qdisc (Sched.Bucket_queue.create ~name:"pifo" ~capacity_pkts:cap ())
  in
  let tenants = qvisor_tenants params in
  let preprocess, make_qdisc, slo_rt =
    match scheme with
    | F.Fifo_both -> (None, fifo, None)
    | F.Pifo_naive | F.Pifo_pfabric_only -> (None, pifo, None)
    | F.Qvisor_policy policy_str ->
      let config =
        { Qvisor.Synthesizer.default_config with levels = params.F.levels }
      in
      let policy = get (Qvisor.Policy.parse policy_str) in
      let plan =
        Tracer.phase L.synthesize (fun () ->
            get (Qvisor.Synthesizer.synthesize ~config ~tenants ~policy ()))
      in
      let slo_rt =
        if not slo then None
        else begin
          let objectives =
            Qvisor.Slo.derive ~plan ~envelopes:(slo_envelopes params)
              ~link_rate:params.F.access_rate ()
          in
          let auditor = Qvisor.Slo.create ~objectives () in
          let health = Engine.Health.create () in
          List.iter
            (fun (tn : Qvisor.Tenant.t) ->
              Engine.Health.watch health ~id:tn.Qvisor.Tenant.id
                ~name:tn.Qvisor.Tenant.name)
            tenants;
          let guard =
            Qvisor.Guard.create ~telemetry
              ~clock:(fun () -> Engine.Sim.now sim)
              ~tenants ()
          in
          Some { auditor; health; guard }
        end
      in
      let on_rank_error =
        Option.map
          (fun rt id e -> Qvisor.Slo.on_rank_error rt.auditor ~tenant_id:id e)
          slo_rt
      in
      let pre =
        Tracer.phase L.compile (fun () ->
            Qvisor.Preprocessor.of_plan ~telemetry ?on_rank_error
              ~rank_error_sample:8 plan)
      in
      let preprocess =
        match slo_rt with
        | None -> Tracer.wrap L.preprocess (Qvisor.Preprocessor.process pre)
        | Some rt -> Tracer.wrap L.guard (Qvisor.Guard.process rt.guard pre)
      in
      (Some preprocess, pifo, slo_rt)
  in
  let pending = Hashtbl.create 4 in
  let hook f = Option.map (fun rt -> Tracer.wrap L.slo (f rt)) slo_rt in
  let net =
    Tracer.phase L.net_build (fun () ->
        Netsim.Net.create ~sim ~topo ~routing ~make_qdisc ?preprocess
          ?on_enqueue:(hook (fun rt p -> Qvisor.Slo.on_enqueue rt.auditor p))
          ?on_dequeue:
            (hook (fun rt (p : Sched.Packet.t) ->
                 Qvisor.Slo.on_delay rt.auditor ~tenant_id:p.Sched.Packet.tenant
                   (Engine.Sim.now sim -. p.Sched.Packet.enqueued_at)))
          ?on_drop:(hook (fun rt p -> Qvisor.Slo.on_drop rt.auditor p))
          ?on_tie_inversion:
            (hook (fun rt (p : Sched.Packet.t) ->
                 Qvisor.Slo.on_tie_inversion rt.auditor
                   ~tenant_id:p.Sched.Packet.tenant))
          ~telemetry
          ?flight:(Option.map (fun _ -> Netsim.Net.default_flight) slo_rt)
          ~on_anomaly:(anomaly_handler slo_rt pending)
          ~meters
          ~deliver:(Tracer.wrap L.deliver (Netsim.Transport.deliver transport))
          ())
  in
  Netsim.Transport.attach transport net;
  let until = params.F.duration +. params.F.drain in
  Option.iter
    (schedule_evaluation ~sim ~telemetry ~meters ~pause ~until ~tenants
       |> fun f rt -> f rt pending)
    slo_rt;
  let metrics = Netsim.Metrics.create () in
  let on_complete (r : Netsim.Transport.flow_result) =
    if r.Netsim.Transport.started_at >= params.F.warmup then
      Netsim.Metrics.record metrics r
  in
  let arrivals =
    Netsim.Workload.poisson_open_loop ~sim ~rng:(Engine.Rng.split rng)
      ~transport ~tenant:0
      ~ranker:(Sched.Ranker.pfabric ~unit_bytes:params.F.pfabric_unit_bytes ())
      ~num_hosts ~load:params.F.load ~access_rate:params.F.access_rate
      ~dist:(Netsim.Workload.data_mining ()) ~window:params.F.window
      ~rto:params.F.rto ~until:params.F.duration ~on_complete ()
  in
  let cbr_stats =
    match scheme with
    | F.Pifo_pfabric_only -> []
    | F.Fifo_both | F.Pifo_naive | F.Qvisor_policy _ ->
      Netsim.Workload.cbr_tenant ~sim ~rng:(Engine.Rng.split rng) ~transport
        ~tenant:1
        ~ranker:
          (Sched.Ranker.edf ~unit_seconds:params.F.edf_unit_seconds
             ~horizon:(1.5 *. params.F.cbr_deadline) ())
        ~num_hosts ~flows:params.F.cbr_flows ~rate:params.F.cbr_rate
        ~deadline_budget:params.F.cbr_deadline ~until ()
  in
  Tracer.phase L.sim_run (fun () -> Engine.Sim.run ~until sim);
  if Engine.Perf.Meters.is_enabled meters then begin
    Engine.Perf.Meters.publish meters telemetry;
    Engine.Perf.sample_gc ?pause telemetry
  end;
  let cbr_deadline_fraction =
    let sent = List.fold_left (fun a s -> a + s.Netsim.Transport.sent) 0 cbr_stats in
    let met =
      List.fold_left (fun a s -> a + s.Netsim.Transport.deadline_met) 0 cbr_stats
    in
    if sent = 0 then nan else float_of_int met /. float_of_int sent
  in
  {
    F.scheme = F.scheme_name scheme;
    load = params.F.load;
    small_mean_ms = Netsim.Metrics.mean_fct_ms metrics Netsim.Metrics.Small;
    small_p99_ms = Netsim.Metrics.p99_fct_ms metrics Netsim.Metrics.Small;
    large_mean_ms = Netsim.Metrics.mean_fct_ms metrics Netsim.Metrics.Large;
    large_p99_ms = Netsim.Metrics.p99_fct_ms metrics Netsim.Metrics.Large;
    overall_mean_ms = 1e3 *. Engine.Stats.mean (Netsim.Metrics.overall metrics);
    flows_started = arrivals.Netsim.Workload.flows_started;
    flows_completed = Netsim.Metrics.completed metrics;
    drops = Netsim.Net.total_drops net;
    cbr_deadline_fraction;
    events_fired = Engine.Sim.events_fired sim;
    wall_seconds = Engine.Sim.busy_seconds sim;
    slo = None;
  }


(* Every point of [w] through the composition; [mark] runs before each. *)
let compose_all ?(mark = ignore) (w : workload) =
  List.concat_map
    (fun load ->
      List.map
        (fun scheme ->
          mark ();
          let telemetry =
            if w.audited then Engine.Telemetry.create () else Engine.Telemetry.disabled
          in
          compose ~slo:w.audited ~telemetry { w.params with F.load } scheme)
        w.schemes)
    w.loads

(* Per-call cost of the per-hop layers [w] never calls (the guard and SLO
   taps on an unaudited sweep, the bare pre-processor behind the audited
   point's guard), from a short quick-scale point that does call them. *)
let probe_ns (w : workload) ~seed =
  let probe =
    {
      (audited_workload ~smoke:true ~seed) with
      audited = not w.audited;
      schemes = [ F.Qvisor_policy "pfabric >> edf" ];
    }
  in
  List.iter Tracer.reset L.all;
  ignore (compose_all probe);
  List.map (fun l -> (l.Tracer.name, Tracer.ns_per_call l)) [ L.preprocess; L.guard; L.slo ]

(* ------------------------------------------------------------------ *)
(* Untraced run: end-to-end metrics                                   *)
(* ------------------------------------------------------------------ *)

(* Set up and simulate both ways a short quick-scale version of [w] at
   the held-out [seed]: Fig4 and the composition the traced run uses must
   agree exactly, on committed values or not. *)
let held_out_check l (w : workload) ~seed =
  let small =
    if w.audited then audited_workload ~smoke:true ~seed
    else sweep_workload ~smoke:true ~seed
  in
  check_prints l
    ~what:(Printf.sprintf "%s held-out seed %d, composition vs Fig4" w.name seed)
    ~expected:(List.map fingerprint (run_pass small).results)
    (List.map fingerprint (compose_all small))

(* [w] runs on the reference inputs; [seed] is the run's own seed. *)
let untraced l ~smoke (w : workload) ~seed ~seconds =
  let setup_s = setup_seconds w ~reps:(if smoke then 1 else if w.audited then 15 else 7) in
  let expected =
    if smoke then None else expected_for ~workload:w.name ~seed:w.params.F.seed
  in
  (* Whole passes only, and none that would end past [seconds].  The heap
     keeps growing over passes, so the peak resident set is read after the
     first one, where every run is at the same point. *)
  let t0 = now () in
  let first = run_pass w in
  let rss = peak_rss_mb 0 in
  let rec loop acc =
    let p = run_pass w in
    if now () -. t0 +. p.raw_wall <= seconds then loop (p :: acc)
    else List.rev (p :: acc)
  in
  let passes =
    if now () -. t0 +. first.raw_wall <= seconds then loop [ first ] else [ first ]
  in
  (* Every pass must reproduce the committed values for this seed; on a
     seed without them, every pass must reproduce the first. *)
  let reference =
    match expected with
    | Some e -> e
    | None -> List.map fingerprint (List.hd passes).results
  in
  let renders =
    List.concat_map
      (fun p ->
        check_prints l
          ~what:(w.name ^ " simulated statistics")
          ~expected:reference
          (List.map fingerprint p.results);
        check_render l w p;
        render_ms w p ~samples:20 ~batch:(if w.audited then 60 else 100))
      passes
  in
  held_out_check l w ~seed;
  (* Segment k is the same simulated work in every pass: take its median
     over passes, so a host slowdown in one pass moves no statistic. *)
  let per_segment =
    List.map (fun p -> p.segments) passes
    |> List.fold_left
         (fun acc segs -> List.map2 (fun a s -> s :: a) acc segs)
         (List.map (fun _ -> []) (List.hd passes).segments)
    |> List.map (fun ss -> (median (List.map fst ss), median (List.map snd ss)))
  in
  let wall = sum (List.map fst per_segment) in
  (* The sweep's first segment is its own set-up before the first call. *)
  let calls =
    List.map (fun (s, _) -> 1e3 *. s)
      (if w.audited then per_segment else List.tl per_segment)
  in
  Printf.printf
    "%s: %d passes of %d segments, %d renderings, %s expected values; pass wall as read %s s\n"
    w.name (List.length passes) (List.length per_segment) (List.length renders)
    (if expected = None then "no committed" else "committed")
    (String.concat "/" (List.map (fun p -> Printf.sprintf "%.3f" p.raw_wall) passes));
  [
    m "setup_s" "s" setup_s;
    m "wall_s" "s" wall;
    m "cpu_s" "s" (sum (List.map snd per_segment));
    m "rpc_p50_ms" "ms" (quantile calls 0.5);
    m "rpc_p90_ms" "ms" (quantile calls 0.9);
    m "scrape_p50_ms" "ms" (quantile renders 0.5);
    m "scrape_p90_ms" "ms" (quantile renders 0.9);
    m "serve_sim_rate" "s/s" (simulated_seconds w /. wall);
    m "max_rss_mb" "MB" rss;
  ]

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics                                      *)
(* ------------------------------------------------------------------ *)

let traced l ~smoke (w : workload) ~seed =
  (* Untraced reference pass: wall time and GC counts without tracing. *)
  let mi0, pr0, _ = Gc.counters () in
  let maj0 = (Gc.quick_stat ()).Gc.major_collections in
  let reference = run_pass w in
  let mi1, pr1, _ = Gc.counters () in
  let maj1 = (Gc.quick_stat ()).Gc.major_collections in
  let ref_prints = List.map fingerprint reference.results in
  (match if smoke then None else expected_for ~workload:w.name ~seed with
  | Some e ->
    check_prints l ~what:(w.name ^ " untraced vs expected") ~expected:e ref_prints
  | None -> ());
  List.iter Tracer.reset L.all;
  depth_sum := 0;
  let results, segs = segmented (fun mark -> compose_all ~mark w) in
  (* Host seconds outside the calibration kernels, as read and at reference
     speed (scaled per point); their ratio takes the per-layer times of this
     run to reference speed. *)
  let traced_wall = sum (List.map (fun (dw, _, _) -> dw) segs) in
  let traced_ref = sum (List.map (fun (dw, _, sc) -> dw *. sc) segs) in
  let run_scale = traced_ref /. traced_wall in
  let reference_ref = sum (List.map fst reference.segments) in
  check_prints l
    ~what:(w.name ^ " traced composition vs untraced Fig4")
    ~expected:ref_prints
    (List.map fingerprint results);
  let events = List.fold_left (fun a r -> a + r.F.events_fired) 0 results in
  let drops = List.fold_left (fun a r -> a + r.F.drops) 0 results in
  let busy = sum (List.map (fun r -> r.F.wall_seconds) results) in
  (* A copy of every layer's counters, taken before any probe resets them. *)
  let snap = List.map (fun (l : Tracer.layer) -> { l with Tracer.calls = l.Tracer.calls }) L.all in
  let at (l : Tracer.layer) = List.find (fun s -> s.Tracer.name = l.Tracer.name) snap in
  let calls l = float_of_int (at l).Tracer.calls in
  let hops = calls L.enqueue in
  let fhops = Float.max 1. hops in
  let layer_s = sum (List.map (fun l -> Tracer.total_s (at l)) L.per_hop) in
  let phase_s l = float_of_int (at l).Tracer.self_ns *. 1e-9 in
  let phase_ms l = 1e3 *. phase_s l *. run_scale /. Float.max 1. (calls l) in
  let uncovered = traced_wall -. sum (List.map phase_s L.phases) in
  let depth_mean = float_of_int !depth_sum /. fhops in
  let probed =
    if List.exists (fun l -> calls l = 0.) [ L.preprocess; L.guard; L.slo ] then
      probe_ns w ~seed
    else []
  in
  let per_call l =
    run_scale
    *.
    if calls l > 0. then Tracer.ns_per_call (at l)
    else Option.value (List.assoc_opt l.Tracer.name probed) ~default:0.
  in
  let layers =
    [
      m "engine.sim.events" "count" (float_of_int events);
      m "engine.sim.busy_s" "s" (busy *. run_scale);
      m "engine.sim.self_ns_per_hop" "ns/hop"
        ((busy -. layer_s) *. 1e9 *. run_scale /. fhops);
      m "engine.gc.minor_words_per_hop" "words/hop" ((mi1 -. mi0) /. fhops);
      m "engine.gc.promoted_words_per_hop" "words/hop" ((pr1 -. pr0) /. fhops);
      m "engine.gc.major_collections" "count" (float_of_int (maj1 - maj0));
      m "netsim.net.hops" "count" hops;
      m "netsim.net.drops" "count" (float_of_int drops);
      m "netsim.net.drop_frac" "fraction" (float_of_int drops /. fhops);
      m "netsim.net.build_ms" "ms" (phase_ms L.net_build);
      m "netsim.transport.deliver.calls" "count" (calls L.deliver);
      m "netsim.transport.deliver.ns" "ns/call" (per_call L.deliver);
      m "sched.enqueue.calls" "count" (calls L.enqueue);
      m "sched.enqueue.ns" "ns/call" (per_call L.enqueue);
      m "sched.dequeue.ns" "ns/call" (per_call L.dequeue);
      m "sched.depth_at_enqueue.mean" "pkts" depth_mean;
      m "qvisor.preprocessor.calls" "count" (calls L.preprocess +. calls L.guard);
      m "qvisor.preprocessor.ns" "ns/call" (per_call L.preprocess);
      m "qvisor.guard.ns" "ns/call" (per_call L.guard);
      m "qvisor.slo.hook_calls" "count" (calls L.slo);
      m "qvisor.slo.hook_ns" "ns/call" (per_call L.slo);
      m "qvisor.synthesizer.synthesize_ms" "ms" (phase_ms L.synthesize);
      m "qvisor.preprocessor.compile_ms" "ms" (phase_ms L.compile);
    ]
  in
  Printf.printf
    "%s: untraced wall %.3f s, traced wall %.3f s (%.3f s and %.3f s as read)\n"
    w.name reference_ref traced_ref reference.raw_wall traced_wall;
  let bench =
    [
      m "bench.tracing_overhead_pct" "%"
        (100. *. (traced_ref -. reference_ref) /. reference_ref);
      m "bench.uncovered_s" "s" (uncovered *. run_scale);
      m "bench.uncovered_pct" "%" (100. *. uncovered /. traced_wall);
    ]
  in
  (layers, bench)
