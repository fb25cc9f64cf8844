(* The assembled scheduling hypervisor (the paper's Fig. 1 box) on a live
   fabric, driven by a recorded trace.

   This example exercises the "production" workflow end to end:

   1. synthesize a flow trace offline and freeze it to disk (the stand-in
      for importing a measured production trace);
   2. assemble the box for three tenants and an operator policy the way
      Fig. 4's audited runs do: synthesizer -> pre-processor, with the
      adversarial guard in front of it;
   3. replay the trace through a leaf-spine fabric whose ports run PIFOs
      behind the guarded pre-processor, while a third, misbehaving
      traffic source hammers top ranks;
   4. report FCTs, the guard's verdicts, and the hottest links.

   Run with:  dune exec examples/hypervisor_fabric.exe *)

let () =
  let seed = 7 in
  let rng = Engine.Rng.create ~seed in

  (* 1. Freeze a workload trace to disk, then load it back. *)
  let trace_path = Filename.temp_file "qvisor_demo" ".trace" in
  let specs =
    Netsim.Trace.synthesize ~rng:(Engine.Rng.split rng)
      ~dist:(Netsim.Workload.data_mining ()) ~num_hosts:8 ~load:0.4
      ~access_rate:1e9 ~tenant:0 ~until:0.05
  in
  Netsim.Trace.save trace_path specs;
  let specs =
    match Netsim.Trace.load trace_path with
    | Ok s -> s
    | Error e -> failwith e
  in
  Format.printf "trace: %d flows frozen to %s and reloaded@." (List.length specs)
    trace_path;

  (* 2. The box: an interactive pFabric tenant isolated above a deadline
     tenant, guard armed. *)
  let tenants =
    [
      Qvisor.Tenant.make ~algorithm:"pfabric" ~rank_lo:0 ~rank_hi:30_000 ~id:0
        ~name:"interactive" ();
      Qvisor.Tenant.make ~algorithm:"edf" ~rank_lo:0 ~rank_hi:150 ~id:1
        ~name:"deadline" ();
      Qvisor.Tenant.make ~algorithm:"stfq" ~rank_lo:0 ~rank_hi:10_000 ~id:2
        ~name:"rogue" ();
    ]
  in
  let plan =
    Qvisor.Synthesizer.synthesize_exn ~tenants
      ~policy:(Qvisor.Policy.parse_exn "interactive >> deadline + rogue")
      ()
  in
  let pre = Qvisor.Preprocessor.of_plan plan in
  let guard =
    Qvisor.Guard.create
      ~config:{ Qvisor.Guard.default_config with window = 128 }
      ~tenants ()
  in

  (* 3. Fabric with the guarded pre-processor installed on every port. *)
  let topo =
    Netsim.Topology.leaf_spine ~leaves:2 ~spines:2 ~hosts_per_leaf:4
      ~access_rate:1e9 ~fabric_rate:4e9 ~link_delay:1e-6
  in
  let routing = Netsim.Routing.compute topo in
  let sim = Engine.Sim.create () in
  let transport = Netsim.Transport.create ~sim () in
  let net =
    Netsim.Net.create ~sim ~topo ~routing
      ~make_qdisc:(fun _ ->
        Sched.Bucket_queue.create ~name:"pifo" ~capacity_pkts:100 ())
      ~preprocess:(Qvisor.Guard.process guard pre)
      ~deliver:(Netsim.Transport.deliver transport)
      ()
  in
  Netsim.Transport.attach transport net;

  let metrics = Netsim.Metrics.create () in
  Netsim.Trace.replay ~sim ~transport
    ~ranker_of_tenant:(fun _ -> Sched.Ranker.pfabric ())
    ~on_complete:(Netsim.Metrics.record metrics)
    specs;
  ignore
    (Netsim.Workload.cbr_tenant ~sim ~rng:(Engine.Rng.split rng) ~transport
       ~tenant:1
       ~ranker:(Sched.Ranker.edf ~unit_seconds:2e-5 ~horizon:3e-3 ())
       ~num_hosts:8 ~flows:5 ~rate:0.25e9 ~deadline_budget:2e-3 ~until:0.05 ());

  (* The rogue tenant declared an STFQ rank function over [0, 10000] but
     tags every packet rank 0 — claiming the head of its shared band
     forever.  The guard's flooding detector should park it. *)
  let attacker_rng = Engine.Rng.split rng in
  let rec attack () =
    if Engine.Sim.now sim < 0.05 then begin
      let src, dst = Engine.Rng.pair_distinct attacker_rng ~n:8 in
      Netsim.Net.inject net
        (Sched.Packet.make ~tenant:2 ~rank:0 ~flow:999_999 ~src ~dst
           ~size:1518 ~created_at:(Engine.Sim.now sim) ());
      ignore (Engine.Sim.schedule_after sim ~delay:20e-6 attack)
    end
  in
  attack ();

  Engine.Sim.run ~until:0.4 sim;

  (* 4. Report. *)
  Format.printf "@.interactive tenant FCTs:@.  %a@." Netsim.Metrics.pp_summary
    metrics;
  let verdict_str id =
    match Qvisor.Guard.verdict guard ~tenant_id:id with
    | Qvisor.Guard.Conforming -> "conforming"
    | Qvisor.Guard.Suspicious _ -> "SUSPICIOUS"
    | Qvisor.Guard.Malicious _ -> "MALICIOUS (parked at worst rank)"
  in
  Format.printf "@.guard verdicts: interactive=%s, deadline=%s, rogue=%s@."
    (verdict_str 0) (verdict_str 1) (verdict_str 2);
  Format.printf "@.hottest links over the run:@.";
  List.iter
    (fun (link_id, u) ->
      Format.printf "  link %2d: %4.1f%% utilized@." link_id (100. *. u))
    (Netsim.Net.busiest_links net ~now:0.05 ~top:5);
  Format.printf "@.packets through the pre-processor: %d@."
    (Qvisor.Preprocessor.processed pre);
  Sys.remove trace_path
