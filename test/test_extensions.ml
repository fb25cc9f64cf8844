(* Tests for the "Looking Forward" (§5) extensions: nested policies
   (parentheses), resource-constrained synthesis (Search), adversarial
   workload detection (Guard), multi-objective rank combinators and link
   utilization instrumentation. *)

let parse = Qvisor.Policy.parse_exn

let mk_tenant ?(rank_lo = 0) ?(rank_hi = 100) ?(weight = 1.0) id name =
  Qvisor.Tenant.make ~rank_lo ~rank_hi ~weight ~id ~name ()

let mk_packet ~tenant ~rank =
  Sched.Packet.make ~tenant ~rank ~flow:0 ~size:1000 ()

(* ------------------------------------------------------------------ *)
(* Nested policies                                                    *)
(* ------------------------------------------------------------------ *)

let test_parens_parse () =
  match parse "T1 + (T2 >> T3)" with
  | Qvisor.Policy.Share
      [
        Qvisor.Policy.Tenant "T1";
        Qvisor.Policy.Strict [ Qvisor.Policy.Tenant "T2"; Qvisor.Policy.Tenant "T3" ];
      ] -> ()
  | p -> Alcotest.failf "unexpected AST: %s" (Qvisor.Policy.to_string p)

let test_parens_round_trip () =
  List.iter
    (fun s ->
      let p = parse s in
      let printed = Qvisor.Policy.to_string p in
      Alcotest.(check bool)
        (Printf.sprintf "%s round-trips (printed %s)" s printed)
        true
        (parse printed = p))
    [
      "T1 + (T2 >> T3)";
      "(T1 > T2) >> (T3 + T4)";
      "((T1))";
      "(T1 + T2) + T3";
      "T1 >> (T2 >> T3) >> T4";
    ]

let test_parens_redundant_dropped () =
  Alcotest.(check string) "redundant parens canonicalized" "T1 >> T2 + T3"
    (Qvisor.Policy.to_string (parse "(T1) >> ((T2 + T3))"))

let test_parens_errors () =
  let is_error s =
    match Qvisor.Policy.parse s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "unbalanced open" true (is_error "(T1 >> T2");
  Alcotest.(check bool) "unbalanced close" true (is_error "T1 >> T2)");
  Alcotest.(check bool) "empty parens" true (is_error "T1 >> ()");
  Alcotest.(check bool) "adjacent atoms" true (is_error "(T1)(T2)")

let test_nested_synthesis () =
  (* Share of a strict subtree: T1 shares with a sub-policy where T2 is
     strictly above T3.  T2/T3 stay ordered inside the shared band. *)
  let tenants = [ mk_tenant 1 "T1"; mk_tenant 2 "T2"; mk_tenant 3 "T3" ] in
  let plan =
    Qvisor.Synthesizer.synthesize_exn ~tenants
      ~policy:(parse "T1 + (T2 >> T3)") ()
  in
  let band id =
    match Qvisor.Synthesizer.band_of plan ~tenant_id:id with
    | Some b -> (b.Qvisor.Synthesizer.lo, b.Qvisor.Synthesizer.hi)
    | None -> Alcotest.failf "no band for %d" id
  in
  let _, t2_hi = band 2 in
  let t3_lo, _ = band 3 in
  Alcotest.(check bool) "T2 above T3 inside the shared band" true
    (t2_hi < t3_lo);
  let report = Qvisor.Analysis.check plan in
  Alcotest.(check bool) "nested plan feasible" true
    report.Qvisor.Analysis.feasible

let test_nested_analysis_constraints () =
  let tenants = [ mk_tenant 1 "T1"; mk_tenant 2 "T2"; mk_tenant 3 "T3" ] in
  let plan =
    Qvisor.Synthesizer.synthesize_exn ~tenants
      ~policy:(parse "T1 + (T2 >> T3)") ()
  in
  let report = Qvisor.Analysis.check plan in
  (* The nested >> between T2 and T3 must be among the checked pairs. *)
  Alcotest.(check bool) "nested strict pair checked" true
    (List.exists
       (fun p ->
         p.Qvisor.Analysis.high.Qvisor.Analysis.label = "T2"
         && p.Qvisor.Analysis.low.Qvisor.Analysis.label = "T3"
         && p.Qvisor.Analysis.required = `Strict)
       report.Qvisor.Analysis.pairs)

(* ------------------------------------------------------------------ *)
(* Search (resource-constrained synthesis)                            *)
(* ------------------------------------------------------------------ *)

let search_tenants () =
  [ mk_tenant 1 "A"; mk_tenant 2 "B"; mk_tenant 3 "C"; mk_tenant 4 "D" ]

let test_search_exact_fit () =
  let resources = { Qvisor.Search.num_queues = 4; queue_capacity_pkts = 64 } in
  match
    Qvisor.Search.fit ~tenants:(search_tenants ())
      ~policy:(parse "A >> B >> C >> D") ~resources ()
  with
  | Error e -> Alcotest.failf "fit failed: %s" (Qvisor.Error.to_string e)
  | Ok proposal ->
    Alcotest.(check bool) "exact" true proposal.Qvisor.Search.exact_fit;
    Alcotest.(check (list (pair string string))) "no demotions" []
      proposal.Qvisor.Search.demotions;
    Alcotest.(check string) "policy unchanged" "A >> B >> C >> D"
      (Qvisor.Policy.to_string proposal.Qvisor.Search.relaxed)

let test_search_demotes_lowest () =
  (* Four strict tiers onto three queues: the cheapest relaxation merges
     the two lowest tiers. *)
  let resources = { Qvisor.Search.num_queues = 3; queue_capacity_pkts = 64 } in
  match
    Qvisor.Search.fit ~tenants:(search_tenants ())
      ~policy:(parse "A >> B >> C >> D") ~resources ()
  with
  | Error e -> Alcotest.failf "fit failed: %s" (Qvisor.Error.to_string e)
  | Ok proposal ->
    Alcotest.(check bool) "not exact" false proposal.Qvisor.Search.exact_fit;
    Alcotest.(check string) "lowest >> demoted" "A >> B >> C > D"
      (Qvisor.Policy.to_string proposal.Qvisor.Search.relaxed);
    Alcotest.(check (list (pair string string))) "demotion recorded"
      [ ("C", "D") ]
      proposal.Qvisor.Search.demotions;
    Alcotest.(check int) "bounds sized to queues" 3
      (Array.length proposal.Qvisor.Search.bounds)

let test_search_multiple_demotions () =
  let resources = { Qvisor.Search.num_queues = 2; queue_capacity_pkts = 64 } in
  match
    Qvisor.Search.fit ~tenants:(search_tenants ())
      ~policy:(parse "A >> B >> C >> D") ~resources ()
  with
  | Error e -> Alcotest.failf "fit failed: %s" (Qvisor.Error.to_string e)
  | Ok proposal ->
    Alcotest.(check int) "two demotions" 2
      (List.length proposal.Qvisor.Search.demotions);
    Alcotest.(check int) "two tiers left" 2
      (Qvisor.Search.required_queues proposal.Qvisor.Search.relaxed);
    (* The top tier survives untouched. *)
    (match proposal.Qvisor.Search.relaxed with
    | Qvisor.Policy.Strict (Qvisor.Policy.Tenant "A" :: _) -> ()
    | p -> Alcotest.failf "top tier lost: %s" (Qvisor.Policy.to_string p))

let test_search_single_queue () =
  let resources = { Qvisor.Search.num_queues = 1; queue_capacity_pkts = 64 } in
  match
    Qvisor.Search.fit ~tenants:(search_tenants ())
      ~policy:(parse "A >> B >> C >> D") ~resources ()
  with
  | Error e -> Alcotest.failf "fit failed: %s" (Qvisor.Error.to_string e)
  | Ok proposal ->
    Alcotest.(check int) "single tier" 1
      (Qvisor.Search.required_queues proposal.Qvisor.Search.relaxed)

let test_search_invalid () =
  let resources = { Qvisor.Search.num_queues = 0; queue_capacity_pkts = 64 } in
  Alcotest.(check bool) "zero queues rejected" true
    (Result.is_error
       (Qvisor.Search.fit ~tenants:(search_tenants ())
          ~policy:(parse "A >> B >> C >> D") ~resources ()))

let test_search_plan_feasible () =
  let resources = { Qvisor.Search.num_queues = 3; queue_capacity_pkts = 64 } in
  match
    Qvisor.Search.fit ~tenants:(search_tenants ())
      ~policy:(parse "A >> B >> C >> D") ~resources ()
  with
  | Error e -> Alcotest.failf "fit failed: %s" (Qvisor.Error.to_string e)
  | Ok proposal ->
    let report = Qvisor.Analysis.check proposal.Qvisor.Search.plan in
    Alcotest.(check bool) "relaxed plan satisfies its own policy" true
      report.Qvisor.Analysis.feasible

(* ------------------------------------------------------------------ *)
(* Guard                                                              *)
(* ------------------------------------------------------------------ *)

let guard_config = { Qvisor.Guard.default_config with window = 10 }

let feed guard ~tenant ~rank n =
  for _ = 1 to n do
    Qvisor.Guard.observe guard (mk_packet ~tenant ~rank)
  done

let test_guard_conforming () =
  let guard =
    Qvisor.Guard.create ~config:guard_config
      ~tenants:[ mk_tenant ~rank_lo:0 ~rank_hi:100 1 "T1" ] ()
  in
  (* Ranks spread over the range: no flooding, no escapes. *)
  for i = 0 to 99 do
    Qvisor.Guard.observe guard (mk_packet ~tenant:1 ~rank:(i mod 101))
  done;
  Alcotest.(check bool) "conforming" true
    (Qvisor.Guard.verdict guard ~tenant_id:1 = Qvisor.Guard.Conforming);
  Alcotest.(check bool) "no mitigation" true
    (Qvisor.Guard.mitigation guard ~tenant_id:1 = Qvisor.Transform.Identity)

let test_guard_out_of_range_escalates () =
  let guard =
    Qvisor.Guard.create ~config:guard_config
      ~tenants:[ mk_tenant ~rank_lo:0 ~rank_hi:100 1 "T1" ] ()
  in
  (* One dirty window -> Suspicious. *)
  feed guard ~tenant:1 ~rank:(-50) 10;
  (match Qvisor.Guard.verdict guard ~tenant_id:1 with
  | Qvisor.Guard.Suspicious [ Qvisor.Guard.Out_of_range f ] ->
    Alcotest.(check (float 1e-9)) "all out of range" 1.0 f
  | _ -> Alcotest.fail "expected Suspicious(Out_of_range)");
  (* Two more dirty windows -> Malicious. *)
  feed guard ~tenant:1 ~rank:(-50) 20;
  (match Qvisor.Guard.verdict guard ~tenant_id:1 with
  | Qvisor.Guard.Malicious _ -> ()
  | _ -> Alcotest.fail "expected Malicious");
  Alcotest.(check int) "three strikes" 3 (Qvisor.Guard.strikes guard ~tenant_id:1)

let test_guard_flooding_detected () =
  let guard =
    Qvisor.Guard.create ~config:guard_config
      ~tenants:[ mk_tenant ~rank_lo:0 ~rank_hi:100 1 "T1" ] ()
  in
  (* Everything at rank 0: inside range, but the whole window sits in the
     best decile. *)
  feed guard ~tenant:1 ~rank:0 10;
  match Qvisor.Guard.verdict guard ~tenant_id:1 with
  | Qvisor.Guard.Suspicious [ Qvisor.Guard.Top_band_flooding f ] ->
    Alcotest.(check (float 1e-9)) "fully flooded" 1.0 f
  | _ -> Alcotest.fail "expected Suspicious(Top_band_flooding)"

let test_guard_recovery () =
  let guard =
    Qvisor.Guard.create ~config:guard_config
      ~tenants:[ mk_tenant ~rank_lo:0 ~rank_hi:100 1 "T1" ] ()
  in
  feed guard ~tenant:1 ~rank:(-50) 10;
  Alcotest.(check int) "one strike" 1 (Qvisor.Guard.strikes guard ~tenant_id:1);
  (* A clean window (spread ranks) clears the strike. *)
  for i = 0 to 9 do
    Qvisor.Guard.observe guard (mk_packet ~tenant:1 ~rank:(20 + (i * 8)))
  done;
  Alcotest.(check int) "strike cleared" 0 (Qvisor.Guard.strikes guard ~tenant_id:1);
  Alcotest.(check bool) "conforming again" true
    (Qvisor.Guard.verdict guard ~tenant_id:1 = Qvisor.Guard.Conforming)

let test_guard_mitigation_ladder () =
  let guard =
    Qvisor.Guard.create ~config:guard_config
      ~tenants:[ mk_tenant ~rank_lo:0 ~rank_hi:100 1 "T1" ] ()
  in
  feed guard ~tenant:1 ~rank:(-50) 10;
  (* Suspicious: escapes clamp back into the declared range. *)
  let clamp = Qvisor.Guard.mitigation guard ~tenant_id:1 in
  Alcotest.(check int) "below clamps to lo" 0 (Qvisor.Transform.apply clamp (-50));
  Alcotest.(check int) "in range unchanged" 42 (Qvisor.Transform.apply clamp 42);
  feed guard ~tenant:1 ~rank:(-50) 20;
  (* Malicious: everything parks at the tenant's worst declared rank. *)
  let park = Qvisor.Guard.mitigation guard ~tenant_id:1 in
  Alcotest.(check int) "best rank parked" 100 (Qvisor.Transform.apply park 0);
  Alcotest.(check int) "escape parked" 100 (Qvisor.Transform.apply park (-50))

let test_guard_end_to_end_protection () =
  (* A malicious tenant hammering rank 0 cannot keep beating an honest
     tenant once the guard trips, even when both share a band. *)
  Sched.Packet.reset_uid_counter 0;
  let honest = mk_tenant ~rank_lo:0 ~rank_hi:100 1 "honest" in
  let attacker = mk_tenant ~rank_lo:0 ~rank_hi:100 2 "attacker" in
  let plan =
    Qvisor.Synthesizer.synthesize_exn ~tenants:[ honest; attacker ]
      ~policy:(parse "honest + attacker") ()
  in
  let pre = Qvisor.Preprocessor.of_plan plan in
  let guard =
    Qvisor.Guard.create ~config:guard_config ~tenants:[ honest; attacker ] ()
  in
  (* Attacker floods the top band long enough to trip three windows. *)
  for _ = 1 to 30 do
    Qvisor.Guard.observe guard (mk_packet ~tenant:2 ~rank:0)
  done;
  let pifo = Sched.Bucket_queue.create ~capacity_pkts:16 () in
  let offer tenant rank =
    let p = mk_packet ~tenant ~rank in
    Qvisor.Guard.process guard pre p;
    ignore (pifo.Sched.Qdisc.enqueue p)
  in
  offer 2 0;
  offer 1 50;
  offer 2 0;
  let order =
    List.map (fun (p : Sched.Packet.t) -> p.Sched.Packet.tenant)
      (Sched.Qdisc.drain pifo)
  in
  Alcotest.(check (list int)) "honest served first despite attack" [ 1; 2; 2 ]
    order

let test_guard_flooding_exemption () =
  (* A pFabric tenant's legitimate traffic concentrates at its best ranks
     (tiny flows, acks at remaining 0): the flooding detector must not
     fire for exempt algorithms, but out-of-range still must. *)
  let pfabric_tenant =
    Qvisor.Tenant.make ~algorithm:"pfabric" ~rank_lo:0 ~rank_hi:30_000 ~id:1
      ~name:"T1" ()
  in
  let guard = Qvisor.Guard.create ~config:guard_config ~tenants:[ pfabric_tenant ] () in
  feed guard ~tenant:1 ~rank:0 30;
  Alcotest.(check bool) "best-rank concentration tolerated" true
    (Qvisor.Guard.verdict guard ~tenant_id:1 = Qvisor.Guard.Conforming);
  feed guard ~tenant:1 ~rank:(-5) 30;
  (match Qvisor.Guard.verdict guard ~tenant_id:1 with
  | Qvisor.Guard.Malicious _ -> ()
  | _ -> Alcotest.fail "out-of-range still detected for exempt algorithms")

let test_guard_byte_weighting () =
  (* 10 tiny flooding packets and one large clean packet per window: the
     byte-weighted flooding fraction stays below 0.5. *)
  let guard =
    Qvisor.Guard.create
      ~config:{ guard_config with Qvisor.Guard.window = 11 }
      ~tenants:[ mk_tenant ~rank_lo:0 ~rank_hi:100 1 "T1" ] ()
  in
  for _ = 1 to 10 do
    Qvisor.Guard.observe guard
      (Sched.Packet.make ~tenant:1 ~rank:0 ~flow:0 ~size:58 ())
  done;
  Qvisor.Guard.observe guard
    (Sched.Packet.make ~tenant:1 ~rank:80 ~flow:0 ~size:1518 ());
  Alcotest.(check bool) "small control packets don't trip flooding" true
    (Qvisor.Guard.verdict guard ~tenant_id:1 = Qvisor.Guard.Conforming)

let test_preprocessor_idempotent_across_hops () =
  (* Processing the same packet at several hops (as a network-wide deploy
     does) must give the same scheduling rank as processing it once,
     because the transformation reads the immutable label. *)
  let tenants =
    [ mk_tenant ~rank_lo:0 ~rank_hi:100 1 "A"; mk_tenant ~rank_lo:0 ~rank_hi:100 2 "B" ]
  in
  let plan =
    Qvisor.Synthesizer.synthesize_exn ~tenants ~policy:(parse "A >> B") ()
  in
  let pre = Qvisor.Preprocessor.of_plan plan in
  let p = mk_packet ~tenant:2 ~rank:42 in
  Qvisor.Preprocessor.process pre p;
  let once = p.Sched.Packet.rank in
  Qvisor.Preprocessor.process pre p;
  Qvisor.Preprocessor.process pre p;
  Alcotest.(check int) "hop-idempotent" once p.Sched.Packet.rank;
  Alcotest.(check int) "label untouched" 42 p.Sched.Packet.label

let test_guard_unknown_tenant_ignored () =
  let guard =
    Qvisor.Guard.create ~tenants:[ mk_tenant ~rank_lo:0 ~rank_hi:100 1 "T1" ] ()
  in
  Qvisor.Guard.observe guard (mk_packet ~tenant:99 ~rank:0);
  Alcotest.(check bool) "unknown tenant conforming" true
    (Qvisor.Guard.verdict guard ~tenant_id:99 = Qvisor.Guard.Conforming);
  Alcotest.(check bool) "identity mitigation" true
    (Qvisor.Guard.mitigation guard ~tenant_id:99 = Qvisor.Transform.Identity)

(* ------------------------------------------------------------------ *)
(* Latency bounds (network calculus)                                  *)
(* ------------------------------------------------------------------ *)

let latency_plan () =
  let tenants =
    [ mk_tenant 1 "Hi"; mk_tenant 2 "Mid"; mk_tenant 3 "Lo" ]
  in
  Qvisor.Synthesizer.synthesize_exn ~tenants ~policy:(parse "Hi >> Mid >> Lo") ()

let gbps = 1e9

let test_latency_tiers () =
  let plan = latency_plan () in
  Alcotest.(check int) "Hi tier" 0 (Qvisor.Latency.tier_of_tenant plan ~tenant_id:1);
  Alcotest.(check int) "Mid tier" 1 (Qvisor.Latency.tier_of_tenant plan ~tenant_id:2);
  Alcotest.(check int) "Lo tier" 2 (Qvisor.Latency.tier_of_tenant plan ~tenant_id:3)

let test_latency_top_tier_bound () =
  (* The top tier's delay only depends on its own burst + one mtu. *)
  let plan = latency_plan () in
  let envelopes =
    [
      (1, Qvisor.Latency.envelope ~sigma:125_000. ~rho:12.5e6);
      (2, Qvisor.Latency.envelope ~sigma:1e6 ~rho:50e6);
      (3, Qvisor.Latency.envelope ~sigma:1e7 ~rho:60e6);
    ]
  in
  match
    Qvisor.Latency.delay_bound ~plan ~envelopes ~link_rate:gbps ~tenant_id:1 ()
  with
  | Qvisor.Latency.Bounded d ->
    (* (125000 + 1518) / 125e6 B/s ~ 1.01 ms. *)
    Alcotest.(check bool) (Printf.sprintf "top tier %.4f ms" (1e3 *. d)) true
      (d > 0.9e-3 && d < 1.1e-3)
  | Qvisor.Latency.Unstable -> Alcotest.fail "top tier should be stable"

let test_latency_lower_tier_larger () =
  let plan = latency_plan () in
  let envelopes =
    [
      (1, Qvisor.Latency.envelope ~sigma:125_000. ~rho:12.5e6);
      (2, Qvisor.Latency.envelope ~sigma:1e6 ~rho:50e6);
      (3, Qvisor.Latency.envelope ~sigma:1e6 ~rho:10e6);
    ]
  in
  let bound id =
    match
      Qvisor.Latency.delay_bound ~plan ~envelopes ~link_rate:gbps ~tenant_id:id ()
    with
    | Qvisor.Latency.Bounded d -> d
    | Qvisor.Latency.Unstable -> Alcotest.fail "unexpected instability"
  in
  Alcotest.(check bool) "delay grows down the tiers" true
    (bound 1 < bound 2 && bound 2 < bound 3)

let test_latency_unstable () =
  (* Higher tiers consume the whole link: the bottom tier has no finite
     worst case. *)
  let plan = latency_plan () in
  let envelopes =
    [
      (1, Qvisor.Latency.envelope ~sigma:0. ~rho:80e6);
      (2, Qvisor.Latency.envelope ~sigma:0. ~rho:50e6);
      (3, Qvisor.Latency.envelope ~sigma:0. ~rho:1e6);
    ]
  in
  (* Link is 1 Gb/s = 125e6 B/s; tiers 1+2 need 130e6 B/s. *)
  (match
     Qvisor.Latency.delay_bound ~plan ~envelopes ~link_rate:gbps ~tenant_id:2 ()
   with
  | Qvisor.Latency.Unstable -> ()
  | Qvisor.Latency.Bounded _ -> Alcotest.fail "tier 2 should be unstable");
  match
    Qvisor.Latency.delay_bound ~plan ~envelopes ~link_rate:gbps ~tenant_id:1 ()
  with
  | Qvisor.Latency.Bounded _ -> ()
  | Qvisor.Latency.Unstable -> Alcotest.fail "tier 1 alone fits"

let test_latency_shared_tier_pools () =
  (* Two tenants sharing a tier see each other's bursts. *)
  let tenants = [ mk_tenant 1 "A"; mk_tenant 2 "B" ] in
  let plan =
    Qvisor.Synthesizer.synthesize_exn ~tenants ~policy:(parse "A + B") ()
  in
  let small = Qvisor.Latency.envelope ~sigma:10_000. ~rho:1e6 in
  let big = Qvisor.Latency.envelope ~sigma:1e6 ~rho:1e6 in
  let bound envelopes =
    match
      Qvisor.Latency.delay_bound ~plan ~envelopes ~link_rate:gbps ~tenant_id:1 ()
    with
    | Qvisor.Latency.Bounded d -> d
    | Qvisor.Latency.Unstable -> Alcotest.fail "stable setup"
  in
  let alone = bound [ (1, small) ] in
  let with_peer = bound [ (1, small); (2, big) ] in
  Alcotest.(check bool) "peer burst inflates the bound" true
    (with_peer > 10. *. alone)

let test_latency_report_and_validation () =
  let plan = latency_plan () in
  let envelopes = [ (1, Qvisor.Latency.envelope ~sigma:1e5 ~rho:1e6) ] in
  let report =
    Qvisor.Latency.report ~plan ~envelopes ~link_rate:gbps ()
  in
  Alcotest.(check int) "one row per tenant" 3 (List.length report);
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad link rate" true
    (raises (fun () ->
         ignore
           (Qvisor.Latency.delay_bound ~plan ~envelopes ~link_rate:0.
              ~tenant_id:1 ())));
  Alcotest.(check bool) "unknown tenant" true
    (raises (fun () ->
         ignore
           (Qvisor.Latency.delay_bound ~plan ~envelopes ~link_rate:gbps
              ~tenant_id:99 ())));
  Alcotest.(check bool) "negative burst" true
    (raises (fun () -> ignore (Qvisor.Latency.envelope ~sigma:(-1.) ~rho:1.)))

let test_latency_bound_holds_in_sim () =
  (* Empirical check: a strict-top-tier CBR stream through a congested
     PIFO port never waits longer than its analytic bound. *)
  let tenants = [ mk_tenant ~rank_hi:100 1 "hi"; mk_tenant ~rank_hi:100 2 "lo" ] in
  let plan =
    Qvisor.Synthesizer.synthesize_exn ~tenants ~policy:(parse "hi >> lo") ()
  in
  let pre = Qvisor.Preprocessor.of_plan plan in
  (* A 1 Gb/s output port: serve one 1518 B packet per 12.144 us. *)
  let q = Sched.Bucket_queue.create ~capacity_pkts:10_000 () in
  let hi_rate = 12.5e6 (* B/s *) and hi_sigma = 30_000. in
  let envelopes = [ (1, Qvisor.Latency.envelope ~sigma:hi_sigma ~rho:hi_rate) ] in
  let bound =
    match
      Qvisor.Latency.delay_bound ~plan ~envelopes ~link_rate:1e9 ~tenant_id:1 ()
    with
    | Qvisor.Latency.Bounded d -> d
    | Qvisor.Latency.Unstable -> Alcotest.fail "stable by construction"
  in
  (* Simulate: every 12.144 us the port serves one packet.  The hi tenant
     sends a 30 KB burst (20 pkts) then paces at hi_rate; the lo tenant
     floods.  Track hi packets' queueing delay. *)
  let sim = Engine.Sim.create () in
  let service = 1518. *. 8. /. 1e9 in
  let worst_wait = ref 0. in
  let rec serve () =
    (match q.Sched.Qdisc.dequeue () with
    | Some p when p.Sched.Packet.tenant = 1 ->
      worst_wait :=
        Float.max !worst_wait (Engine.Sim.now sim -. p.Sched.Packet.enqueued_at)
    | Some _ | None -> ());
    ignore (Engine.Sim.schedule_after sim ~delay:service serve)
  in
  let offer tenant rank =
    let p = Sched.Packet.make ~tenant ~rank ~flow:tenant ~size:1518 () in
    p.Sched.Packet.enqueued_at <- Engine.Sim.now sim;
    Qvisor.Preprocessor.process pre p;
    ignore (q.Sched.Qdisc.enqueue p)
  in
  (* lo floods every service slot. *)
  let rec flood () =
    offer 2 50;
    ignore (Engine.Sim.schedule_after sim ~delay:service flood)
  in
  (* hi: burst of 20 then paced. *)
  let rec paced () =
    offer 1 50;
    ignore (Engine.Sim.schedule_after sim ~delay:(1518. /. hi_rate) paced)
  in
  ignore (Engine.Sim.schedule_at sim ~time:0. flood);
  ignore
    (Engine.Sim.schedule_at sim ~time:0.001 (fun () ->
         for _ = 1 to 20 do
           offer 1 50
         done;
         paced ()));
  ignore (Engine.Sim.schedule_at sim ~time:0. serve);
  Engine.Sim.run ~until:0.05 sim;
  Alcotest.(check bool)
    (Printf.sprintf "worst observed %.3f ms <= bound %.3f ms"
       (1e3 *. !worst_wait) (1e3 *. bound))
    true
    (!worst_wait <= bound)

(* ------------------------------------------------------------------ *)
(* Multi-objective rankers                                            *)
(* ------------------------------------------------------------------ *)

let test_weighted_blend () =
  (* Blend pFabric (remaining) and EDF (deadline): a packet small on one
     axis and large on the other lands in the middle. *)
  let rk =
    Sched.Ranker.weighted
      ~components:
        [
          (Sched.Ranker.pfabric ~unit_bytes:1000 (), (0, 1000), 1.0);
          (Sched.Ranker.edf ~unit_seconds:1e-3 ~horizon:1.0 (), (0, 1000), 1.0);
        ]
      ()
  in
  let small_urgent =
    Sched.Packet.make ~flow:1 ~size:1000 ~remaining:0 ~deadline:0.0 ()
  in
  let big_lazy =
    Sched.Packet.make ~flow:2 ~size:1000 ~remaining:1_000_000 ~deadline:10.0 ()
  in
  let mixed =
    Sched.Packet.make ~flow:3 ~size:1000 ~remaining:0 ~deadline:10.0 ()
  in
  let r_su = Sched.Ranker.tag rk ~now:0. small_urgent in
  let r_bl = Sched.Ranker.tag rk ~now:0. big_lazy in
  let r_mx = Sched.Ranker.tag rk ~now:0. mixed in
  Alcotest.(check int) "best on both axes" 0 r_su;
  Alcotest.(check int) "worst on both axes" 1000 r_bl;
  Alcotest.(check bool) "mixed in between" true (r_su < r_mx && r_mx < r_bl)

let test_weighted_weights_matter () =
  let mk alpha =
    Sched.Ranker.weighted
      ~components:
        [
          (Sched.Ranker.pfabric ~unit_bytes:1000 (), (0, 1000), alpha);
          (Sched.Ranker.edf ~unit_seconds:1e-3 ~horizon:1.0 (), (0, 1000), 1.0);
        ]
      ()
  in
  (* A packet bad on the pFabric axis only: the heavier pFabric weighs,
     the worse its combined rank. *)
  let p () =
    Sched.Packet.make ~flow:1 ~size:1000 ~remaining:1_000_000 ~deadline:0.0 ()
  in
  let light = Sched.Ranker.tag (mk 0.5) ~now:0. (p ()) in
  let heavy = Sched.Ranker.tag (mk 4.0) ~now:0. (p ()) in
  Alcotest.(check bool) "weight shifts the blend" true (light < heavy)

let test_weighted_invalid () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty components" true
    (raises (fun () -> ignore (Sched.Ranker.weighted ~components:[] ())));
  Alcotest.(check bool) "bad weight" true
    (raises (fun () ->
         ignore
           (Sched.Ranker.weighted
              ~components:[ (Sched.Ranker.constant 0, (0, 1), -1.0) ]
              ())))

let test_lexicographic_order () =
  let rk =
    Sched.Ranker.lexicographic
      ~primary:(Sched.Ranker.pfabric ~unit_bytes:1000 (), (0, 1000))
      ~secondary:(Sched.Ranker.edf ~unit_seconds:1e-3 ~horizon:1.0 (), (0, 1000))
      ()
  in
  let mk ~remaining ~deadline =
    Sched.Packet.make ~flow:1 ~size:1000 ~remaining ~deadline ()
  in
  (* Primary dominates... *)
  let small_late = Sched.Ranker.tag rk ~now:0. (mk ~remaining:1000 ~deadline:10.0) in
  let big_urgent = Sched.Ranker.tag rk ~now:0. (mk ~remaining:900_000 ~deadline:0.0) in
  Alcotest.(check bool) "primary dominates" true (small_late < big_urgent);
  (* ... and the secondary breaks primary ties. *)
  let tie_urgent = Sched.Ranker.tag rk ~now:0. (mk ~remaining:1000 ~deadline:0.0) in
  let tie_late = Sched.Ranker.tag rk ~now:0. (mk ~remaining:1000 ~deadline:10.0) in
  Alcotest.(check bool) "secondary breaks ties" true (tie_urgent < tie_late)

let test_combinator_names () =
  let w =
    Sched.Ranker.weighted
      ~components:[ (Sched.Ranker.pfabric (), (0, 10), 1.0) ]
      ()
  in
  Alcotest.(check string) "weighted name" "weighted(pfabric)" (Sched.Ranker.name w);
  let l =
    Sched.Ranker.lexicographic
      ~primary:(Sched.Ranker.pfabric (), (0, 10))
      ~secondary:(Sched.Ranker.edf (), (0, 10))
      ()
  in
  Alcotest.(check string) "lex name" "lex(pfabric,edf)" (Sched.Ranker.name l)

(* ------------------------------------------------------------------ *)
(* Pipeline compiler                                                  *)
(* ------------------------------------------------------------------ *)

let pipeline_plan ?(policy = "A >> B") ?(hi_a = 30_000) ?(hi_b = 150) () =
  let tenants =
    [
      mk_tenant ~rank_lo:0 ~rank_hi:hi_a 1 "A";
      mk_tenant ~rank_lo:0 ~rank_hi:hi_b 2 "B";
    ]
  in
  Qvisor.Synthesizer.synthesize_exn ~tenants ~policy:(parse policy) ()

let test_pipeline_compiles () =
  match Qvisor.Pipeline.compile (pipeline_plan ()) with
  | Error e -> Alcotest.failf "compile failed: %s" e
  | Ok program ->
    Alcotest.(check int) "two entries" 2
      (List.length program.Qvisor.Pipeline.entries);
    (* A 16-bit multiplier over 16-bit bands keeps the error tiny
       relative to the 32768-wide bands. *)
    Alcotest.(check bool)
      (Printf.sprintf "worst error %d small" program.Qvisor.Pipeline.worst_error)
      true
      (program.Qvisor.Pipeline.worst_error < 64)

let test_pipeline_matches_exact_preprocessor () =
  let plan = pipeline_plan () in
  let pre = Qvisor.Preprocessor.of_plan plan in
  match Qvisor.Pipeline.compile plan with
  | Error e -> Alcotest.failf "compile failed: %s" e
  | Ok program ->
    let worst = ref 0 in
    for label = 0 to 30_000 do
      let exact = mk_packet ~tenant:1 ~rank:label in
      let compiled = mk_packet ~tenant:1 ~rank:label in
      Qvisor.Preprocessor.process pre exact;
      Qvisor.Pipeline.execute program compiled;
      worst := max !worst (abs (exact.Sched.Packet.rank - compiled.Sched.Packet.rank))
    done;
    Alcotest.(check bool)
      (Printf.sprintf "measured max deviation %d within reported bound %d"
         !worst program.Qvisor.Pipeline.worst_error)
      true
      (!worst <= program.Qvisor.Pipeline.worst_error)

let test_pipeline_preserves_isolation () =
  let plan = pipeline_plan () in
  match Qvisor.Pipeline.compile plan with
  | Error e -> Alcotest.failf "compile failed: %s" e
  | Ok program ->
    (* Worst A rank still beats best B rank after compilation. *)
    let a = mk_packet ~tenant:1 ~rank:30_000 in
    let b = mk_packet ~tenant:2 ~rank:0 in
    Qvisor.Pipeline.execute program a;
    Qvisor.Pipeline.execute program b;
    Alcotest.(check bool) "isolation survives compilation" true
      (a.Sched.Packet.rank < b.Sched.Packet.rank)

let test_pipeline_monotone () =
  let plan = pipeline_plan () in
  match Qvisor.Pipeline.compile plan with
  | Error e -> Alcotest.failf "compile failed: %s" e
  | Ok program ->
    let entry = List.hd program.Qvisor.Pipeline.entries in
    let prev = ref min_int in
    for label = 0 to 30_000 do
      let r = Qvisor.Pipeline.apply_action entry.Qvisor.Pipeline.action label in
      if r < !prev then Alcotest.failf "non-monotone at %d" label;
      prev := r
    done

let test_pipeline_fallback_parks () =
  let plan = pipeline_plan () in
  match Qvisor.Pipeline.compile plan with
  | Error e -> Alcotest.failf "compile failed: %s" e
  | Ok program ->
    let stranger = mk_packet ~tenant:77 ~rank:0 in
    Qvisor.Pipeline.execute program stranger;
    Alcotest.(check int) "parked at worst" plan.Qvisor.Synthesizer.rank_hi
      stranger.Sched.Packet.rank

let test_pipeline_table_overflow () =
  let resources =
    { Qvisor.Pipeline.default_resources with max_entries = 2 }
  in
  Alcotest.(check bool) "overflow rejected" true
    (Result.is_error (Qvisor.Pipeline.compile ~resources (pipeline_plan ())))

let test_pipeline_tiny_multiplier_fails_or_errs () =
  (* A 1-bit multiplier cannot express the slope without distorting far
     beyond the tier: the compiler must refuse rather than mis-deploy. *)
  let resources =
    { Qvisor.Pipeline.default_resources with max_mult = 1; max_rshift = 0 }
  in
  match Qvisor.Pipeline.compile ~resources (pipeline_plan ()) with
  | Error _ -> ()
  | Ok program ->
    (* If it did compile, the isolation check must have held. *)
    let a = mk_packet ~tenant:1 ~rank:30_000 in
    let b = mk_packet ~tenant:2 ~rank:0 in
    Qvisor.Pipeline.execute program a;
    Qvisor.Pipeline.execute program b;
    Alcotest.(check bool) "isolation never sacrificed" true
      (a.Sched.Packet.rank < b.Sched.Packet.rank)

let test_pipeline_share_policy () =
  (* Sharing tenants map onto one band; compilation still verifies. *)
  match Qvisor.Pipeline.compile (pipeline_plan ~policy:"A + B" ()) with
  | Error e -> Alcotest.failf "compile failed: %s" e
  | Ok program ->
    Alcotest.(check int) "entries" 2 (List.length program.Qvisor.Pipeline.entries)

(* ------------------------------------------------------------------ *)
(* Net utilization + new workloads                                    *)
(* ------------------------------------------------------------------ *)

let fabric () =
  let topo =
    Netsim.Topology.leaf_spine ~leaves:2 ~spines:2 ~hosts_per_leaf:2
      ~access_rate:1e9 ~fabric_rate:4e9 ~link_delay:1e-6
  in
  let routing = Netsim.Routing.compute topo in
  let sim = Engine.Sim.create () in
  let transport = Netsim.Transport.create ~sim () in
  let net =
    Netsim.Net.create ~sim ~topo ~routing
      ~make_qdisc:(fun _ -> Sched.Fifo_queue.create ~capacity_pkts:100 ())
      ~deliver:(Netsim.Transport.deliver transport)
      ()
  in
  Netsim.Transport.attach transport net;
  (sim, net, transport)

let test_utilization_counts_bytes () =
  let sim, net, transport = fabric () in
  ignore
    (Netsim.Transport.start_cbr transport ~tenant:0
       ~ranker:(Sched.Ranker.constant 0) ~src:0 ~dst:1 ~rate:0.5e9
       ~until:0.01 ());
  Engine.Sim.run sim;
  (* Host 0's uplink is link 0: it carried ~0.5 Gb/s for 10 ms. *)
  let u = Netsim.Net.link_utilization net ~link_id:0 ~now:0.01 in
  Alcotest.(check bool) "about half utilized" true (u > 0.45 && u < 0.55);
  Alcotest.(check bool) "tx bytes counted" true
    (Netsim.Net.port_tx_bytes net ~link_id:0 > 600_000)

let test_busiest_links () =
  let sim, net, transport = fabric () in
  ignore
    (Netsim.Transport.start_cbr transport ~tenant:0
       ~ranker:(Sched.Ranker.constant 0) ~src:0 ~dst:1 ~rate:0.8e9
       ~until:0.01 ());
  Engine.Sim.run sim;
  match Netsim.Net.busiest_links net ~now:0.01 ~top:2 with
  | (busiest, u) :: _ ->
    Alcotest.(check int) "host 0 uplink busiest" 0 busiest;
    Alcotest.(check bool) "high utilization" true (u > 0.7)
  | [] -> Alcotest.fail "no links"

let test_utilization_zero_time () =
  let _, net, _ = fabric () in
  Alcotest.(check (float 0.)) "zero at t=0" 0.
    (Netsim.Net.link_utilization net ~link_id:0 ~now:0.)

(* ------------------------------------------------------------------ *)
(* Runtime hot-swap under live traffic                                *)
(* ------------------------------------------------------------------ *)

let test_runtime_hot_swap_live_fabric () =
  (* Traffic is in flight when a third tenant joins and the plan is
     swapped: nothing crashes, pre-swap packets finish, post-swap packets
     of the newcomer are scheduled below the incumbents. *)
  let topo =
    Netsim.Topology.leaf_spine ~leaves:2 ~spines:2 ~hosts_per_leaf:2
      ~access_rate:1e9 ~fabric_rate:4e9 ~link_delay:1e-6
  in
  let routing = Netsim.Routing.compute topo in
  let sim = Engine.Sim.create () in
  let transport = Netsim.Transport.create ~sim () in
  let rt =
    Qvisor.Runtime.create_exn
      ~tenants:
        [
          Qvisor.Tenant.make ~algorithm:"pfabric" ~rank_hi:30_000 ~id:0
            ~name:"T1" ();
          Qvisor.Tenant.make ~algorithm:"edf" ~rank_hi:150 ~id:1 ~name:"T2" ();
        ]
      ~policy:(parse "T1 + T2") ()
  in
  let net =
    Netsim.Net.create ~sim ~topo ~routing
      ~make_qdisc:(fun _ -> Sched.Bucket_queue.create ~capacity_pkts:100 ())
      ~preprocess:(Qvisor.Runtime.process rt)
      ~deliver:(Netsim.Transport.deliver transport)
      ()
  in
  ignore net;
  Netsim.Transport.attach transport net;
  let completions = Hashtbl.create 4 in
  let note tenant =
    Hashtbl.replace completions tenant
      (1 + Option.value (Hashtbl.find_opt completions tenant) ~default:0)
  in
  let start_flow ~tenant ~size =
    ignore
      (Netsim.Transport.start_flow transport ~tenant
         ~ranker:(Sched.Ranker.pfabric ()) ~src:0 ~dst:3 ~size
         ~on_complete:(fun r -> note r.Netsim.Transport.tenant)
         ())
  in
  start_flow ~tenant:0 ~size:500_000;
  (* Mid-flight: tenant 2 joins at the lowest priority. *)
  ignore
    (Engine.Sim.schedule_at sim ~time:0.001 (fun () ->
         (match
            Qvisor.Runtime.add_tenant rt
              (Qvisor.Tenant.make ~algorithm:"stfq" ~rank_hi:5_000 ~id:2
                 ~name:"T3" ())
              ~policy:(parse "T1 + T2 >> T3") ()
          with
         | Ok () -> ()
         | Error e -> Alcotest.failf "hot add failed: %s" (Qvisor.Error.to_string e));
         start_flow ~tenant:2 ~size:100_000));
  Engine.Sim.run sim;
  Alcotest.(check (option int)) "incumbent finished" (Some 1)
    (Hashtbl.find_opt completions 0);
  Alcotest.(check (option int)) "newcomer finished" (Some 1)
    (Hashtbl.find_opt completions 2);
  (* The swapped plan actually governs the data path now. *)
  let p_new = Sched.Packet.make ~tenant:2 ~rank:0 ~flow:9 ~size:1000 () in
  let p_old = Sched.Packet.make ~tenant:0 ~rank:30_000 ~flow:9 ~size:1000 () in
  Qvisor.Runtime.process rt p_new;
  Qvisor.Runtime.process rt p_old;
  Alcotest.(check bool) "post-swap isolation" true
    (p_old.Sched.Packet.rank < p_new.Sched.Packet.rank)

(* ------------------------------------------------------------------ *)
(* Churn experiment smoke test                                        *)
(* ------------------------------------------------------------------ *)

let test_churn_qvisor_protects () =
  (* Tiny version of ablation A3: after T3 joins, QVISOR's T1 FCT must be
     substantially better than the naive deployment's. *)
  let params =
    {
      Experiments.Churn.default with
      Experiments.Churn.t_end = 0.15;
      t_join = 0.06;
      drain = 0.2;
    }
  in
  let naive = Experiments.Churn.run params ~qvisor:false in
  let qvisor = Experiments.Churn.run params ~qvisor:true in
  Alcotest.(check bool)
    (Printf.sprintf "qvisor after-join FCT (%.3f) beats naive (%.3f)"
       qvisor.Experiments.Churn.after_join_ms naive.Experiments.Churn.after_join_ms)
    true
    (qvisor.Experiments.Churn.after_join_ms
    < naive.Experiments.Churn.after_join_ms);
  (* Golden pin on the rendered table and both activity plots. *)
  let rendered =
    Format.asprintf "%a@.%a@.%a@." Experiments.Churn.print [ naive; qvisor ]
      Experiments.Churn.print_activity naive Experiments.Churn.print_activity
      qvisor
  in
  Alcotest.(check string) "table and activity plots digest"
    "7c241f8c19d1540d80208621d83ba766"
    (Digest.to_hex (Digest.string rendered))

let () =
  Alcotest.run "extensions"
    [
      ( "nested_policy",
        [
          Alcotest.test_case "parse parens" `Quick test_parens_parse;
          Alcotest.test_case "round trips" `Quick test_parens_round_trip;
          Alcotest.test_case "redundant parens" `Quick test_parens_redundant_dropped;
          Alcotest.test_case "errors" `Quick test_parens_errors;
          Alcotest.test_case "nested synthesis" `Quick test_nested_synthesis;
          Alcotest.test_case "nested analysis" `Quick test_nested_analysis_constraints;
        ] );
      ( "search",
        [
          Alcotest.test_case "exact fit" `Quick test_search_exact_fit;
          Alcotest.test_case "demotes lowest" `Quick test_search_demotes_lowest;
          Alcotest.test_case "multiple demotions" `Quick test_search_multiple_demotions;
          Alcotest.test_case "single queue" `Quick test_search_single_queue;
          Alcotest.test_case "invalid" `Quick test_search_invalid;
          Alcotest.test_case "plan feasible" `Quick test_search_plan_feasible;
        ] );
      ( "guard",
        [
          Alcotest.test_case "conforming" `Quick test_guard_conforming;
          Alcotest.test_case "out of range escalates" `Quick test_guard_out_of_range_escalates;
          Alcotest.test_case "flooding detected" `Quick test_guard_flooding_detected;
          Alcotest.test_case "recovery" `Quick test_guard_recovery;
          Alcotest.test_case "mitigation ladder" `Quick test_guard_mitigation_ladder;
          Alcotest.test_case "end-to-end protection" `Quick test_guard_end_to_end_protection;
          Alcotest.test_case "unknown tenant" `Quick test_guard_unknown_tenant_ignored;
          Alcotest.test_case "flooding exemption" `Quick test_guard_flooding_exemption;
          Alcotest.test_case "byte weighting" `Quick test_guard_byte_weighting;
          Alcotest.test_case "hop idempotence" `Quick test_preprocessor_idempotent_across_hops;
        ] );
      ( "latency",
        [
          Alcotest.test_case "tiers" `Quick test_latency_tiers;
          Alcotest.test_case "top tier bound" `Quick test_latency_top_tier_bound;
          Alcotest.test_case "lower tiers larger" `Quick test_latency_lower_tier_larger;
          Alcotest.test_case "unstable" `Quick test_latency_unstable;
          Alcotest.test_case "shared tier pools" `Quick test_latency_shared_tier_pools;
          Alcotest.test_case "report+validation" `Quick test_latency_report_and_validation;
          Alcotest.test_case "bound holds in sim" `Quick test_latency_bound_holds_in_sim;
        ] );
      ( "multi_objective",
        [
          Alcotest.test_case "weighted blend" `Quick test_weighted_blend;
          Alcotest.test_case "weights matter" `Quick test_weighted_weights_matter;
          Alcotest.test_case "weighted invalid" `Quick test_weighted_invalid;
          Alcotest.test_case "lexicographic" `Quick test_lexicographic_order;
          Alcotest.test_case "names" `Quick test_combinator_names;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "compiles" `Quick test_pipeline_compiles;
          Alcotest.test_case "matches exact" `Quick test_pipeline_matches_exact_preprocessor;
          Alcotest.test_case "preserves isolation" `Quick test_pipeline_preserves_isolation;
          Alcotest.test_case "monotone" `Quick test_pipeline_monotone;
          Alcotest.test_case "fallback parks" `Quick test_pipeline_fallback_parks;
          Alcotest.test_case "table overflow" `Quick test_pipeline_table_overflow;
          Alcotest.test_case "tiny multiplier" `Quick test_pipeline_tiny_multiplier_fails_or_errs;
          Alcotest.test_case "share policy" `Quick test_pipeline_share_policy;
        ] );
      ( "net_instrumentation",
        [
          Alcotest.test_case "utilization" `Quick test_utilization_counts_bytes;
          Alcotest.test_case "busiest links" `Quick test_busiest_links;
          Alcotest.test_case "zero time" `Quick test_utilization_zero_time;
        ] );
      ( "hot_swap",
        [
          Alcotest.test_case "live fabric" `Quick test_runtime_hot_swap_live_fabric;
        ] );
      ( "churn",
        [ Alcotest.test_case "qvisor protects T1" `Slow test_churn_qvisor_protects ] );
    ]
