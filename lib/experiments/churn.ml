type result = {
  scheme : string;
  before_join_ms : float;
  after_join_ms : float;
  degradation : float;
  t3_flows_completed : int;
  activity : Engine.Tsdb.range list;
}

type params = {
  t1_load : float;
  t3_load : float;
  t_join : float;
  t_end : float;
  drain : float;
  seed : int;
}

let default =
  {
    t1_load = 0.35;
    t3_load = 0.6;
    t_join = 0.1;
    t_end = 0.25;
    drain = 0.3;
    seed = 1;
  }

let run ?(telemetry = Engine.Telemetry.disabled)
    ?(profiler = Engine.Span.disabled) params ~qvisor =
  Engine.Span.with_ profiler ~name:"churn.run" @@ fun () ->
  Sched.Packet.reset_uid_counter 0;
  let topo, routing = Fig4.fabric Fig4.quick in
  let num_hosts = Netsim.Topology.num_hosts topo in
  let access_rate = Fig4.quick.Fig4.access_rate in
  let sim = Engine.Sim.create ~profiler () in
  let rng = Engine.Rng.create ~seed:params.seed in
  let transport = Netsim.Transport.create ~sim () in
  (* Tenant specs: T1 pFabric (KB ranks), T2 EDF (20 us ranks), T3 STFQ
     (KB-of-virtual-time ranks: small numbers that clash hard with T1's
     large-flow ranks when deployed naively). *)
  let cbr_deadline = 2e-3 in
  let tenants =
    [
      Qvisor.Tenant.make ~algorithm:"pfabric" ~rank_lo:0 ~rank_hi:30_000 ~id:0
        ~name:"T1" ();
      Qvisor.Tenant.make ~algorithm:"edf" ~rank_lo:0 ~rank_hi:150 ~id:1
        ~name:"T2" ();
      Qvisor.Tenant.make ~algorithm:"lstf" ~rank_lo:0 ~rank_hi:500 ~id:2
        ~name:"T3" ();
    ]
  in
  let preprocess =
    if qvisor then begin
      let plan =
        Qvisor.Synthesizer.synthesize_exn ~profiler ~tenants
          ~policy:(Qvisor.Policy.parse_exn "T1 + T2 >> T3")
          ()
      in
      let pre = Qvisor.Preprocessor.of_plan ~profiler ~telemetry plan in
      Some (Qvisor.Preprocessor.process pre)
    end
    else None
  in
  (* Per-tenant delivered-bytes timelines (the Fig. 2 activity plot): one
     10 ms tier with a slot for every bucket up to the run's end. *)
  let until = params.t_end +. params.drain in
  let bucket = 0.01 in
  let slots = int_of_float (until /. bucket) + 1 in
  let store =
    Engine.Tsdb.create ~tiers:[ { Engine.Tsdb.resolution = bucket; slots } ] ()
  in
  let names = [ "T1 (pfabric)"; "T2 (edf)"; "T3 (background)" ] in
  let activity =
    Array.of_list
      (List.map (Engine.Tsdb.series store ~kind:Engine.Tsdb.Gauge) names)
  in
  let deliver p =
    let tenant = p.Sched.Packet.tenant in
    if tenant >= 0 && tenant < Array.length activity then
      Engine.Tsdb.observe store activity.(tenant) ~time:(Engine.Sim.now sim)
        (float_of_int p.Sched.Packet.payload);
    Netsim.Transport.deliver transport p
  in
  let net =
    Netsim.Net.create ~sim ~topo ~routing
      ~make_qdisc:(fun _ ->
        Sched.Bucket_queue.create ~name:"pifo" ~capacity_pkts:100 ())
      ?preprocess ~telemetry ~profiler ~deliver ()
  in
  Netsim.Transport.attach transport net;
  (* T1: interactive pFabric traffic for the whole run. *)
  let before = Engine.Stats.create () in
  let after = Engine.Stats.create () in
  let warmup = 0.02 in
  let t1_complete (r : Netsim.Transport.flow_result) =
    let s = r.Netsim.Transport.started_at in
    if s >= warmup && r.Netsim.Transport.size < 100_000 then begin
      if s < params.t_join then Engine.Stats.add before (Netsim.Transport.fct r)
      else Engine.Stats.add after (Netsim.Transport.fct r)
    end
  in
  ignore
    (Netsim.Workload.poisson_open_loop ~sim ~rng:(Engine.Rng.split rng)
       ~transport ~tenant:0
       ~ranker:(Sched.Ranker.pfabric ())
       ~num_hosts ~load:params.t1_load ~access_rate
       ~dist:(Netsim.Workload.data_mining ()) ~until:params.t_end
       ~on_complete:t1_complete ());
  (* T2: a light EDF CBR tenant, present throughout. *)
  ignore
    (Netsim.Workload.cbr_tenant ~sim ~rng:(Engine.Rng.split rng) ~transport
       ~tenant:1
       ~ranker:(Sched.Ranker.edf ~unit_seconds:2e-5 ~horizon:(1.5 *. cbr_deadline) ())
       ~num_hosts ~flows:(max 1 (num_hosts / 4))
       ~rate:0.25e9 ~deadline_budget:cbr_deadline ~until:params.t_end ());
  (* T3 joins at t_join: heavy deadline-driven bulk flows ranked by LSTF
     (slack in 10 us units).  As each flow's slack melts, its raw ranks
     sink towards 0 and — deployed naively — cut ahead of everything T1
     sends.  Under QVISOR, [>> T3] shifts the whole tenant below T1/T2
     regardless. *)
  let t3_completed = ref 0 in
  let t3_rng = Engine.Rng.split rng in
  let t3_ranker = Sched.Ranker.lstf ~unit_seconds:1e-5 ~line_rate:access_rate () in
  let t3_on_complete _ = incr t3_completed in
  ignore
    (Engine.Sim.schedule_at sim ~time:params.t_join (fun () ->
         (* A hand-rolled Poisson generator so each flow can carry an
            absolute deadline (slack budget of 5 ms). *)
         let dist = Netsim.Workload.web_search () in
         let mean_size = Engine.Rng.Empirical.mean dist in
         let rate =
           Netsim.Workload.flow_arrival_rate ~load:params.t3_load ~num_hosts
             ~access_rate ~mean_flow_size:mean_size
         in
         let rec arrival () =
           let gap = Engine.Rng.exponential t3_rng ~mean:(1. /. rate) in
           ignore
             (Engine.Sim.schedule_after sim ~delay:gap (fun () ->
                  if Engine.Sim.now sim < params.t_end then begin
                    let src, dst =
                      Engine.Rng.pair_distinct t3_rng ~n:num_hosts
                    in
                    let size =
                      max 1
                        (int_of_float (Engine.Rng.Empirical.sample dist t3_rng))
                    in
                    ignore
                      (Netsim.Transport.start_flow transport ~tenant:2
                         ~ranker:t3_ranker ~src ~dst ~size
                         ~deadline:(Engine.Sim.now sim +. 5e-3)
                         ~on_complete:t3_on_complete ());
                    arrival ()
                  end))
         in
         arrival ()));
  Engine.Sim.run ~until sim;
  let before_ms = 1e3 *. Engine.Stats.mean before in
  let after_ms = 1e3 *. Engine.Stats.mean after in
  {
    scheme = (if qvisor then "QVISOR (T1 + T2 >> T3)" else "naive PIFO");
    before_join_ms = before_ms;
    after_join_ms = after_ms;
    degradation = after_ms /. before_ms;
    t3_flows_completed = !t3_completed;
    activity =
      List.map
        (fun name ->
          Option.get
            (Engine.Tsdb.query store ~name ~start:0.
               ~stop:(float_of_int slots *. bucket) ()))
        names;
  }

let compare_schemes ?jobs
    ?(telemetry_for = fun ~qvisor:_ -> Engine.Telemetry.disabled)
    ?(profiler_for = fun ~qvisor:_ -> Engine.Span.disabled) params =
  (* Two independent simulations — one worker each when jobs >= 2. *)
  Engine.Parallel.map ?jobs
    (fun qvisor ->
      run
        ~telemetry:(telemetry_for ~qvisor)
        ~profiler:(profiler_for ~qvisor)
        params ~qvisor)
    [ false; true ]

let print ppf results =
  Format.fprintf ppf
    "@[<v>Ablation A3 — tenant churn (Fig. 2 timeline): T1 small-flow FCT@,";
  Format.fprintf ppf "%-24s | %12s | %12s | %11s | %8s@," "scheme"
    "before (ms)" "after (ms)" "degradation" "T3 flows";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-24s | %12.3f | %12.3f | %10.2fx | %8d@," r.scheme
        r.before_join_ms r.after_join_ms r.degradation r.t3_flows_completed)
    results;
  Format.fprintf ppf "@]"

let print_activity ppf r =
  (* The tenants' answers share one step: label the bucket width they
     carry, which Tsdb.max_points may have coarsened past 10 ms. *)
  let step = (List.hd r.activity).Engine.Tsdb.r_step in
  Format.fprintf ppf
    "@[<v>tenant activity under %s (delivered bytes per %g ms):@," r.scheme
    (1e3 *. step);
  List.iter
    (fun (a : Engine.Tsdb.range) ->
      let total =
        Array.fold_left
          (fun acc -> function Some p -> acc +. p.Engine.Tsdb.p_sum | None -> acc)
          0. a.r_points
      in
      Format.fprintf ppf "@,%s (total %.3g MB):@,%a@," a.r_name (total /. 1e6)
        Engine.Tsdb.pp_sums a)
    r.activity;
  Format.fprintf ppf "@]"
