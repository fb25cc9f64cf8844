(* Tests for the QVISOR core: policy language, rank transformations, the
   synthesizer, the pre-processor, static analysis, deployment backends,
   and the runtime controller.  Includes the paper's Fig. 3 worked example
   end to end. *)

let parse = Qvisor.Policy.parse_exn

let mk_tenant ?(algorithm = "custom") ?(rank_lo = 0) ?(rank_hi = 100)
    ?(weight = 1.0) id name =
  Qvisor.Tenant.make ~algorithm ~rank_lo ~rank_hi ~weight ~id ~name ()

let mk_packet ~tenant ~rank =
  Sched.Packet.make ~tenant ~rank ~flow:0 ~size:1000 ()

(* ------------------------------------------------------------------ *)
(* Policy                                                             *)
(* ------------------------------------------------------------------ *)

let test_policy_single () =
  Alcotest.(check string) "single tenant" "T1"
    (Qvisor.Policy.to_string (parse "T1"))

let test_policy_paper_example () =
  (* The §3.1 example: T1 >> T2 > T3 + T4 >> T5. *)
  let p = parse "{T1 >> T2 > T3 + T4 >> T5}" in
  (match p with
  | Qvisor.Policy.Strict
      [
        Qvisor.Policy.Tenant "T1";
        Qvisor.Policy.Prefer
          [
            Qvisor.Policy.Tenant "T2";
            Qvisor.Policy.Share
              [ Qvisor.Policy.Tenant "T3"; Qvisor.Policy.Tenant "T4" ];
          ];
        Qvisor.Policy.Tenant "T5";
      ] -> ()
  | _ -> Alcotest.failf "unexpected AST: %s" (Qvisor.Policy.to_string p));
  Alcotest.(check string) "round trip" "T1 >> T2 > T3 + T4 >> T5"
    (Qvisor.Policy.to_string p)

let test_policy_precedence () =
  (* + binds tighter than > binds tighter than >>. *)
  match parse "A + B > C >> D" with
  | Qvisor.Policy.Strict
      [
        Qvisor.Policy.Prefer
          [
            Qvisor.Policy.Share [ Qvisor.Policy.Tenant "A"; Qvisor.Policy.Tenant "B" ];
            Qvisor.Policy.Tenant "C";
          ];
        Qvisor.Policy.Tenant "D";
      ] -> ()
  | p -> Alcotest.failf "unexpected AST: %s" (Qvisor.Policy.to_string p)

let test_policy_whitespace_braces () =
  Alcotest.(check string) "no spaces" "T1 >> T2"
    (Qvisor.Policy.to_string (parse "T1>>T2"));
  Alcotest.(check string) "braces dropped" "T1 + T2"
    (Qvisor.Policy.to_string (parse "{ T1 + T2 }"))

let test_policy_errors () =
  let is_error s =
    match Qvisor.Policy.parse s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "empty" true (is_error "");
  Alcotest.(check bool) "dangling op" true (is_error "T1 >>");
  Alcotest.(check bool) "double op" true (is_error "T1 >> >> T2");
  Alcotest.(check bool) "leading op" true (is_error "+ T1");
  Alcotest.(check bool) "bad char" true (is_error "T1 & T2");
  Alcotest.(check bool) "number alone" true (is_error "1 >> 2")

let test_policy_tenant_names () =
  Alcotest.(check (list string)) "left to right"
    [ "T1"; "T2"; "T3"; "T4"; "T5" ]
    (Qvisor.Policy.tenant_names (parse "T1 >> T2 > T3 + T4 >> T5"))

let test_policy_validate () =
  let p = parse "T1 >> T2" in
  Alcotest.(check bool) "ok" true
    (Result.is_ok (Qvisor.Policy.validate p ~known:[ "T1"; "T2" ]));
  Alcotest.(check bool) "unknown tenant" true
    (Result.is_error (Qvisor.Policy.validate p ~known:[ "T1" ]));
  Alcotest.(check bool) "uncovered tenant" true
    (Result.is_error (Qvisor.Policy.validate p ~known:[ "T1"; "T2"; "T3" ]));
  Alcotest.(check bool) "duplicate in policy" true
    (Result.is_error
       (Qvisor.Policy.validate (parse "T1 >> T1") ~known:[ "T1" ]))

let test_policy_validate_error_order () =
  (* A policy with both defects reports the unknown tenant first — an
     unknown name usually explains the rest. *)
  (match
     Qvisor.Policy.validate (parse "T1 + T1 + TX") ~known:[ "T1" ]
   with
  | Error (Qvisor.Error.Unknown_tenant "TX") -> ()
  | Error e ->
    Alcotest.failf "expected unknown tenant first, got: %s"
      (Qvisor.Error.to_string e)
  | Ok () -> Alcotest.fail "defective policy accepted");
  (match Qvisor.Policy.validate (parse "T1 + T1") ~known:[ "T1" ] with
  | Error (Qvisor.Error.Synthesis msg) ->
    Alcotest.(check bool) "duplicate reported" true
      (String.length msg > 0)
  | Error e ->
    Alcotest.failf "expected duplicate error, got: %s"
      (Qvisor.Error.to_string e)
  | Ok () -> Alcotest.fail "duplicate accepted");
  match Qvisor.Policy.validate (parse "T1") ~known:[ "T1"; "T2" ] with
  | Error (Qvisor.Error.Synthesis _) -> ()
  | Error e ->
    Alcotest.failf "expected coverage error, got: %s"
      (Qvisor.Error.to_string e)
  | Ok () -> Alcotest.fail "uncovered tenant accepted"

let test_policy_validate_scales () =
  (* The set-based validation pass stays fast and correct on wide share
     policies (the old List.mem pass was quadratic). *)
  let names = List.init 500 (fun i -> Printf.sprintf "T%d" i) in
  let policy = parse (String.concat " + " names) in
  Alcotest.(check bool) "wide policy validates" true
    (Result.is_ok (Qvisor.Policy.validate policy ~known:names))

let test_policy_strict_tiers () =
  Alcotest.(check int) "three tiers" 3
    (List.length (Qvisor.Policy.strict_tiers (parse "A >> B >> C")));
  Alcotest.(check int) "non-strict root is one tier" 1
    (List.length (Qvisor.Policy.strict_tiers (parse "A + B")))

let prop_policy_round_trip =
  (* Generate a random policy string from the grammar and check
     parse ∘ to_string is stable. *)
  let gen =
    QCheck.Gen.(
      let name = map (Printf.sprintf "T%d") (int_range 1 9) in
      let op = oneofl [ " >> "; " > "; " + " ] in
      let* n = int_range 0 5 in
      let* first = name in
      let* rest = list_repeat n (pair op name) in
      return (first ^ String.concat "" (List.map (fun (o, x) -> o ^ x) rest)))
  in
  QCheck.Test.make ~name:"policy to_string/parse round-trips" ~count:200
    (QCheck.make gen) (fun s ->
      match Qvisor.Policy.parse s with
      | Error _ -> true (* duplicates like "T1 + T1" may be rejected later *)
      | Ok p -> (
        let printed = Qvisor.Policy.to_string p in
        match Qvisor.Policy.parse printed with
        | Error e -> QCheck.Test.fail_reportf "re-parse failed: %s" (Qvisor.Error.to_string e)
        | Ok p' -> p = p'))

(* ------------------------------------------------------------------ *)
(* Transform                                                          *)
(* ------------------------------------------------------------------ *)

let test_transform_shift () =
  let t = Qvisor.Transform.shift 10 in
  Alcotest.(check int) "shift" 15 (Qvisor.Transform.apply t 5);
  Alcotest.(check (pair int int)) "range" (10, 20)
    (Qvisor.Transform.range t (0, 10))

let test_transform_normalize_affine () =
  (* [0,100] onto [0,10]: full-width quantization. *)
  let t = Qvisor.Transform.normalize ~src:(0, 100) ~dst:(0, 10) () in
  Alcotest.(check int) "lo" 0 (Qvisor.Transform.apply t 0);
  Alcotest.(check int) "hi" 10 (Qvisor.Transform.apply t 100);
  Alcotest.(check int) "mid" 5 (Qvisor.Transform.apply t 50)

let test_transform_normalize_clamps () =
  let t = Qvisor.Transform.normalize ~src:(10, 20) ~dst:(100, 110) () in
  Alcotest.(check int) "below clamps" 100 (Qvisor.Transform.apply t 0);
  Alcotest.(check int) "above clamps" 110 (Qvisor.Transform.apply t 999)

let test_transform_quantization_levels () =
  (* Two levels over [0,99] -> {0, 10}. *)
  let t = Qvisor.Transform.normalize ~src:(0, 99) ~dst:(0, 10) ~levels:2 () in
  Alcotest.(check int) "low half" 0 (Qvisor.Transform.apply t 49);
  Alcotest.(check int) "high half" 10 (Qvisor.Transform.apply t 50);
  (* One level collapses everything. *)
  let t1 = Qvisor.Transform.normalize ~src:(0, 99) ~dst:(7, 9) ~levels:1 () in
  Alcotest.(check int) "single level" 7 (Qvisor.Transform.apply t1 88)

let test_transform_compose () =
  let t =
    Qvisor.Transform.compose
      (Qvisor.Transform.normalize ~src:(0, 100) ~dst:(0, 10) ())
      (Qvisor.Transform.shift 5)
  in
  Alcotest.(check int) "normalize then shift" 10 (Qvisor.Transform.apply t 50);
  Alcotest.(check (pair int int)) "range composes" (5, 15)
    (Qvisor.Transform.range t (0, 100))

let test_transform_compose_identity () =
  let n = Qvisor.Transform.normalize ~src:(0, 1) ~dst:(0, 1) () in
  Alcotest.(check bool) "id left" true
    (Qvisor.Transform.compose Qvisor.Transform.Identity n = n);
  Alcotest.(check bool) "id right" true
    (Qvisor.Transform.compose n Qvisor.Transform.Identity = n)

let test_transform_invalid () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty src" true
    (raises (fun () -> ignore (Qvisor.Transform.normalize ~src:(5, 1) ~dst:(0, 1) ())));
  Alcotest.(check bool) "empty dst" true
    (raises (fun () -> ignore (Qvisor.Transform.normalize ~src:(0, 1) ~dst:(5, 1) ())));
  Alcotest.(check bool) "zero levels" true
    (raises (fun () ->
         ignore (Qvisor.Transform.normalize ~src:(0, 1) ~dst:(0, 1) ~levels:0 ())))

let prop_normalize_monotone =
  QCheck.Test.make ~name:"normalize preserves intra-tenant rank order"
    ~count:300
    QCheck.(triple (int_bound 1000) (int_bound 1000) (int_range 1 64))
    (fun (a, b, levels) ->
      let t =
        Qvisor.Transform.normalize ~src:(0, 1000) ~dst:(50, 150) ~levels ()
      in
      let fa = Qvisor.Transform.apply t a and fb = Qvisor.Transform.apply t b in
      if a <= b then fa <= fb else fa >= fb)

let prop_normalize_stays_in_dst =
  QCheck.Test.make ~name:"normalize lands inside the destination band"
    ~count:300
    QCheck.(pair (int_range (-500) 1500) (int_range 1 64))
    (fun (r, levels) ->
      let t =
        Qvisor.Transform.normalize ~src:(0, 1000) ~dst:(50, 150) ~levels ()
      in
      let out = Qvisor.Transform.apply t r in
      50 <= out && out <= 150)

let prop_transform_range_sound =
  (* The interval analysis is sound: for any point in the input interval,
     its image lies within [range]. *)
  QCheck.Test.make ~name:"transform range bounds every pointwise image"
    ~count:300
    QCheck.(
      quad (int_range (-100) 1000) (int_range 0 500) (int_bound 400)
        (pair (int_range 1 64) (int_bound 300)))
    (fun (lo, width, probe_offset, (levels, shift)) ->
      let hi = lo + width in
      let t =
        Qvisor.Transform.compose
          (Qvisor.Transform.normalize ~src:(lo, hi) ~dst:(0, 1000) ~levels ())
          (Qvisor.Transform.shift shift)
      in
      let rlo, rhi = Qvisor.Transform.range t (lo, hi) in
      let x = lo + (probe_offset mod (width + 1)) in
      let y = Qvisor.Transform.apply t x in
      rlo <= y && y <= rhi)

(* ------------------------------------------------------------------ *)
(* Synthesizer                                                        *)
(* ------------------------------------------------------------------ *)

let three_tenants () =
  [
    mk_tenant ~algorithm:"pfabric" ~rank_lo:7 ~rank_hi:9 1 "T1";
    mk_tenant ~algorithm:"edf" ~rank_lo:1 ~rank_hi:3 2 "T2";
    mk_tenant ~algorithm:"fq" ~rank_lo:3 ~rank_hi:5 3 "T3";
  ]

let synth ?config tenants policy_str =
  Qvisor.Synthesizer.synthesize_exn ?config ~tenants ~policy:(parse policy_str) ()

let band plan id =
  match Qvisor.Synthesizer.band_of plan ~tenant_id:id with
  | Some b -> (b.Qvisor.Synthesizer.lo, b.Qvisor.Synthesizer.hi)
  | None -> Alcotest.failf "no band for tenant %d" id

let test_synth_strict_disjoint () =
  let plan = synth (three_tenants ()) "T1 >> T2 + T3" in
  let _, t1_hi = band plan 1 in
  let t2_lo, _ = band plan 2 in
  let t3_lo, _ = band plan 3 in
  Alcotest.(check bool) "T1 wholly above T2" true (t1_hi < t2_lo);
  Alcotest.(check bool) "T1 wholly above T3" true (t1_hi < t3_lo)

let test_synth_share_same_start () =
  let plan = synth (three_tenants ()) "T1 >> T2 + T3" in
  let t2_lo, _ = band plan 2 in
  let t3_lo, _ = band plan 3 in
  Alcotest.(check int) "sharing tenants aligned" t2_lo t3_lo

let test_synth_prefer_offset () =
  let plan = synth (three_tenants ()) "T1 > T2 > T3" in
  let t1_lo, t1_hi = band plan 1 in
  let t2_lo, t2_hi = band plan 2 in
  let t3_lo, _ = band plan 3 in
  Alcotest.(check bool) "T1 starts below T2" true (t1_lo < t2_lo);
  Alcotest.(check bool) "T2 starts below T3" true (t2_lo < t3_lo);
  Alcotest.(check bool) "bands overlap (best-effort)" true (t2_lo <= t1_hi);
  Alcotest.(check bool) "ends aligned" true (t1_hi = t2_hi)

let test_synth_weighted_share () =
  let tenants =
    [
      mk_tenant ~weight:4.0 ~rank_lo:0 ~rank_hi:100 1 "Gold";
      mk_tenant ~weight:1.0 ~rank_lo:0 ~rank_hi:100 2 "Bronze";
    ]
  in
  let plan = synth tenants "Gold + Bronze" in
  let _, gold_hi = band plan 1 in
  let _, bronze_hi = band plan 2 in
  Alcotest.(check bool) "heavier weight compressed into better ranks" true
    (gold_hi < bronze_hi)

let test_synth_covers_rank_space () =
  let plan = synth (three_tenants ()) "T1 >> T2 >> T3" in
  let t1_lo, _ = band plan 1 in
  let _, t3_hi = band plan 3 in
  Alcotest.(check int) "starts at rank_lo" plan.Qvisor.Synthesizer.rank_lo t1_lo;
  Alcotest.(check int) "ends at rank_hi" plan.Qvisor.Synthesizer.rank_hi t3_hi

let test_synth_errors () =
  let tenants = three_tenants () in
  let is_err ?config tenants policy =
    Result.is_error
      (Qvisor.Synthesizer.synthesize ?config ~tenants ~policy:(parse policy) ())
  in
  Alcotest.(check bool) "unknown tenant" true (is_err tenants "T1 >> TX >> T2 >> T3");
  Alcotest.(check bool) "missing tenant" true (is_err tenants "T1 >> T2");
  Alcotest.(check bool) "duplicate ids" true
    (is_err (tenants @ [ mk_tenant 1 "T9" ]) "T1 >> T2 >> T3 >> T9");
  let narrow = { Qvisor.Synthesizer.default_config with rank_lo = 0; rank_hi = 1 } in
  Alcotest.(check bool) "narrow rank space" true
    (is_err ~config:narrow tenants "T1 >> T2 >> T3")

let test_synth_fallback_is_worst () =
  let plan = synth (three_tenants ()) "T1 >> T2 + T3" in
  let tr = Qvisor.Synthesizer.transform_of plan ~tenant_id:999 in
  Alcotest.(check int) "stranger parks at the bottom"
    plan.Qvisor.Synthesizer.rank_hi
    (Qvisor.Transform.apply tr 0)

let prop_synth_strict_tiers_never_overlap =
  (* For random 3-tenant strict policies and random rank ranges, tiers are
     always disjoint and ordered. *)
  QCheck.Test.make ~name:"strict tiers are disjoint in policy order" ~count:200
    QCheck.(
      triple (pair (int_bound 1000) (int_bound 1000))
        (pair (int_bound 1000) (int_bound 1000))
        (pair (int_bound 1000) (int_bound 1000)))
    (fun ((a1, a2), (b1, b2), (c1, c2)) ->
      let r lo hi = (min lo hi, max lo hi) in
      let a1, a2 = r a1 a2 and b1, b2 = r b1 b2 and c1, c2 = r c1 c2 in
      let tenants =
        [
          mk_tenant ~rank_lo:a1 ~rank_hi:a2 1 "A";
          mk_tenant ~rank_lo:b1 ~rank_hi:b2 2 "B";
          mk_tenant ~rank_lo:c1 ~rank_hi:c2 3 "C";
        ]
      in
      let plan = synth tenants "A >> B >> C" in
      let _, ha = band plan 1 in
      let lb, hb = band plan 2 in
      let lc, _ = band plan 3 in
      ha < lb && hb < lc)

(* Random policy ASTs over a fixed tenant pool, with nesting. *)
let policy_gen =
  QCheck.Gen.(
    let tenant_pool = [| "T1"; "T2"; "T3"; "T4"; "T5"; "T6" |] in
    (* Build a random tree over a random subset of distinct tenants. *)
    let* n = int_range 1 6 in
    let names = Array.sub tenant_pool 0 n in
    let rec build lo hi =
      (* A policy tree over names[lo..hi-1]. *)
      if hi - lo = 1 then return (Qvisor.Policy.Tenant names.(lo))
      else
        let* split = int_range (lo + 1) (hi - 1) in
        let* left = build lo split in
        let* right = build split hi in
        let* op = int_range 0 2 in
        let combine ctor flat a b =
          ctor (flat a @ flat b)
        in
        return
          (match op with
          | 0 ->
            combine
              (fun l -> Qvisor.Policy.Strict l)
              (function Qvisor.Policy.Strict l -> l | x -> [ x ])
              left right
          | 1 ->
            combine
              (fun l -> Qvisor.Policy.Prefer l)
              (function Qvisor.Policy.Prefer l -> l | x -> [ x ])
              left right
          | _ ->
            combine
              (fun l -> Qvisor.Policy.Share l)
              (function Qvisor.Policy.Share l -> l | x -> [ x ])
              left right)
    in
    build 0 n)

let tenants_for policy =
  List.mapi
    (fun i name -> mk_tenant ~rank_lo:0 ~rank_hi:(100 + (i * 517)) (i + 1) name)
    (Qvisor.Policy.tenant_names policy)

let prop_random_policies_synthesize_feasible =
  QCheck.Test.make ~name:"random nested policies synthesize feasibly" ~count:300
    (QCheck.make policy_gen) (fun policy ->
      let tenants = tenants_for policy in
      match Qvisor.Synthesizer.synthesize ~tenants ~policy () with
      | Error e -> QCheck.Test.fail_reportf "synthesis failed: %s" (Qvisor.Error.to_string e)
      | Ok plan ->
        let report = Qvisor.Analysis.check plan in
        if not report.Qvisor.Analysis.feasible then
          QCheck.Test.fail_reportf "infeasible plan for %s: %s"
            (Qvisor.Policy.to_string policy)
            (String.concat "; " report.Qvisor.Analysis.violations)
        else true)

let prop_random_policies_preprocess_in_band =
  QCheck.Test.make ~name:"preprocessed ranks stay inside the tenant band"
    ~count:200
    QCheck.(pair (make policy_gen) (int_bound 10_000))
    (fun (policy, raw) ->
      let tenants = tenants_for policy in
      let plan = Qvisor.Synthesizer.synthesize_exn ~tenants ~policy () in
      let pre = Qvisor.Preprocessor.of_plan plan in
      List.for_all
        (fun t ->
          let p = mk_packet ~tenant:t.Qvisor.Tenant.id ~rank:raw in
          Qvisor.Preprocessor.process pre p;
          match Qvisor.Synthesizer.band_of plan ~tenant_id:t.Qvisor.Tenant.id with
          | Some b ->
            b.Qvisor.Synthesizer.lo <= p.Sched.Packet.rank
            && p.Sched.Packet.rank <= b.Qvisor.Synthesizer.hi
          | None -> false)
        tenants)

let prop_random_policies_round_trip_serialization =
  QCheck.Test.make ~name:"random policies survive JSON round trip" ~count:200
    (QCheck.make policy_gen) (fun policy ->
      match
        Qvisor.Serialize.policy_of_json (Qvisor.Serialize.policy_to_json policy)
      with
      | Ok p -> p = policy
      | Error e ->
        QCheck.Test.fail_reportf "round trip failed: %s"
          (Qvisor.Error.to_string e))

(* ------------------------------------------------------------------ *)
(* Pre-processor + Fig. 3                                              *)
(* ------------------------------------------------------------------ *)

let test_preprocessor_rewrites_in_band () =
  let plan = synth (three_tenants ()) "T1 >> T2 + T3" in
  let pre = Qvisor.Preprocessor.of_plan plan in
  let p = mk_packet ~tenant:1 ~rank:8 in
  Qvisor.Preprocessor.process pre p;
  let lo, hi = band plan 1 in
  Alcotest.(check bool) "rank inside T1's band" true
    (lo <= p.Sched.Packet.rank && p.Sched.Packet.rank <= hi)

let test_preprocessor_unknown_tenant () =
  let plan = synth (three_tenants ()) "T1 >> T2 + T3" in
  let pre = Qvisor.Preprocessor.of_plan plan in
  let p = mk_packet ~tenant:42 ~rank:0 in
  Qvisor.Preprocessor.process pre p;
  Alcotest.(check int) "parked at worst rank" plan.Qvisor.Synthesizer.rank_hi
    p.Sched.Packet.rank

let test_preprocessor_counters () =
  let plan = synth (three_tenants ()) "T1 >> T2 + T3" in
  let pre = Qvisor.Preprocessor.of_plan plan in
  Qvisor.Preprocessor.process pre (mk_packet ~tenant:1 ~rank:7);
  Qvisor.Preprocessor.process pre (mk_packet ~tenant:1 ~rank:8);
  Qvisor.Preprocessor.process pre (mk_packet ~tenant:2 ~rank:1);
  Alcotest.(check int) "processed" 3 (Qvisor.Preprocessor.processed pre);
  Alcotest.(check (list (pair int int))) "per tenant" [ (1, 2); (2, 1) ]
    (Qvisor.Preprocessor.per_tenant pre)

(* Fig. 3, literally: tenants T1 (pFabric, ranks {7,8,9}), T2 (EDF, ranks
   {1,3}), T3 (FQ, ranks {3,5}); policy T1 >> T2 + T3; scheduler a PIFO.
   Expected: all T1 packets first (in rank order), then T2/T3 interleaved
   fairly in their own rank orders. *)
let test_fig3_end_to_end () =
  Sched.Packet.reset_uid_counter 0;
  let plan = synth (three_tenants ()) "T1 >> T2 + T3" in
  let pre = Qvisor.Preprocessor.of_plan plan in
  let pifo = Sched.Pifo_queue.create ~capacity_pkts:16 () in
  let offer tenant rank =
    let p = mk_packet ~tenant ~rank in
    Qvisor.Preprocessor.process pre p;
    ignore (pifo.Sched.Qdisc.enqueue p)
  in
  (* Arrival sequence from the figure (right to left): 9,7,8 for T1;
     1,3 for T2; 3,5 for T3 — arrival order within a tenant shouldn't
     matter beyond rank ties. *)
  offer 1 9;
  offer 2 1;
  offer 3 3;
  offer 1 7;
  offer 2 3;
  offer 3 5;
  offer 1 8;
  let served = Sched.Qdisc.drain pifo in
  let tenants_served = List.map (fun p -> p.Sched.Packet.tenant) served in
  (* T1's three packets drain first. *)
  Alcotest.(check (list int)) "T1 isolated on top" [ 1; 1; 1 ]
    (List.filteri (fun i _ -> i < 3) tenants_served);
  (* T2 and T3 interleave afterwards. *)
  Alcotest.(check (list int)) "T2/T3 share" [ 2; 3; 2; 3 ]
    (List.filteri (fun i _ -> i >= 3) tenants_served);
  (* Intra-tenant rank order is preserved for every tenant. *)
  List.iter
    (fun tenant ->
      let ranks =
        List.filter_map
          (fun (p : Sched.Packet.t) ->
            if p.Sched.Packet.tenant = tenant then Some p.Sched.Packet.rank
            else None)
          served
      in
      Alcotest.(check (list int))
        (Printf.sprintf "tenant %d order preserved" tenant)
        (List.sort compare ranks) ranks)
    [ 1; 2; 3 ]

let test_fig3_naive_clash () =
  (* Without QVISOR the same packets clash: raw EDF ranks {1,3} and FQ
     ranks {3,5} beat pFabric's {7,8,9} even though the operator wants T1
     on top. *)
  Sched.Packet.reset_uid_counter 0;
  let pifo = Sched.Pifo_queue.create ~capacity_pkts:16 () in
  let offer tenant rank =
    ignore (pifo.Sched.Qdisc.enqueue (mk_packet ~tenant ~rank))
  in
  offer 1 9;
  offer 2 1;
  offer 3 3;
  offer 1 7;
  offer 2 3;
  offer 3 5;
  offer 1 8;
  let served = Sched.Qdisc.drain pifo in
  let first_three =
    List.filteri (fun i _ -> i < 3) (List.map (fun p -> p.Sched.Packet.tenant) served)
  in
  Alcotest.(check bool) "T1 starved at the head" true
    (not (List.mem 1 first_three))

(* ------------------------------------------------------------------ *)
(* Analysis                                                           *)
(* ------------------------------------------------------------------ *)

let test_analysis_strict_isolated () =
  let plan = synth (three_tenants ()) "T1 >> T2 + T3" in
  let report = Qvisor.Analysis.check plan in
  Alcotest.(check bool) "feasible" true report.Qvisor.Analysis.feasible;
  Alcotest.(check (list string)) "no violations" []
    report.Qvisor.Analysis.violations

let test_analysis_relations () =
  let plan = synth (three_tenants ()) "T1 >> T2 + T3" in
  let t1 = List.nth (three_tenants ()) 0 in
  let t2 = List.nth (three_tenants ()) 1 in
  let t3 = List.nth (three_tenants ()) 2 in
  (match Qvisor.Analysis.relation_between plan t1 t2 with
  | Qvisor.Analysis.Isolated -> ()
  | r ->
    Alcotest.failf "expected Isolated, got %s"
      (Format.asprintf "%a" Qvisor.Analysis.pp_report
         { Qvisor.Analysis.pairs = []; feasible = true; violations = [] }
       |> fun _ -> match r with
          | Qvisor.Analysis.Preferred _ -> "Preferred"
          | Qvisor.Analysis.Shared _ -> "Shared"
          | Qvisor.Analysis.Inverted -> "Inverted"
          | Qvisor.Analysis.Isolated -> "Isolated"));
  match Qvisor.Analysis.relation_between plan t2 t3 with
  | Qvisor.Analysis.Shared f -> Alcotest.(check bool) "aligned" true (f > 0.)
  | _ -> Alcotest.fail "expected Shared"

let test_analysis_effective_band () =
  let plan = synth (three_tenants ()) "T1 >> T2 + T3" in
  let t1 = List.nth (three_tenants ()) 0 in
  let lo, hi = Qvisor.Analysis.effective_band plan t1 in
  let blo, bhi = band plan 1 in
  Alcotest.(check bool) "band contains image" true (blo <= lo && hi <= bhi)

let test_analysis_detects_violation () =
  (* Hand-build a broken plan: both tenants mapped to the same band while
     the policy demands strict priority. *)
  let tenants =
    [ mk_tenant ~rank_lo:0 ~rank_hi:9 1 "A"; mk_tenant ~rank_lo:0 ~rank_hi:9 2 "B" ]
  in
  let plan = synth tenants "A >> B" in
  let same_band =
    Qvisor.Transform.normalize ~src:(0, 9) ~dst:(0, 9) ()
  in
  let broken =
    {
      plan with
      Qvisor.Synthesizer.assignments =
        List.map
          (fun a -> { a with Qvisor.Synthesizer.transform = same_band })
          plan.Qvisor.Synthesizer.assignments;
    }
  in
  let report = Qvisor.Analysis.check broken in
  Alcotest.(check bool) "infeasible" false report.Qvisor.Analysis.feasible;
  Alcotest.(check bool) "violation reported" true
    (List.length report.Qvisor.Analysis.violations > 0)

let test_analysis_starvation () =
  let plan = synth (three_tenants ()) "T1 >> T2 + T3" in
  let at_risk =
    List.map (fun t -> t.Qvisor.Tenant.name) (Qvisor.Analysis.starvation_risk plan)
  in
  Alcotest.(check (list string)) "lower tiers at risk" [ "T2"; "T3" ] at_risk

let test_analysis_paper_policy () =
  let tenants =
    [
      mk_tenant 1 "T1"; mk_tenant 2 "T2"; mk_tenant 3 "T3"; mk_tenant 4 "T4";
      mk_tenant 5 "T5";
    ]
  in
  let plan = synth tenants "T1 >> T2 > T3 + T4 >> T5" in
  let report = Qvisor.Analysis.check plan in
  Alcotest.(check bool) "paper's five-tenant policy feasible" true
    report.Qvisor.Analysis.feasible;
  (* T1 must be isolated from everyone; T5 below everyone. *)
  List.iter
    (fun p ->
      if p.Qvisor.Analysis.high.Qvisor.Analysis.label = "T1" then
        match p.Qvisor.Analysis.actual with
        | Qvisor.Analysis.Isolated -> ()
        | _ -> Alcotest.fail "T1 not isolated")
    report.Qvisor.Analysis.pairs

(* ------------------------------------------------------------------ *)
(* Deploy                                                             *)
(* ------------------------------------------------------------------ *)

let bounds_exn ~plan ~num_queues =
  match Qvisor.Deploy.queue_bounds_of_plan ~plan ~num_queues with
  | Ok bounds -> bounds
  | Error e -> Alcotest.failf "queue bounds failed: %s" (Qvisor.Error.to_string e)

let test_deploy_bounds_cover_space () =
  let plan = synth (three_tenants ()) "T1 >> T2 + T3" in
  let bounds = bounds_exn ~plan ~num_queues:4 in
  Alcotest.(check int) "four bounds" 4 (Array.length bounds);
  Alcotest.(check int) "last bound tops the space"
    plan.Qvisor.Synthesizer.rank_hi
    bounds.(Array.length bounds - 1);
  let sorted = Array.copy bounds in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "non-decreasing" sorted bounds

let test_deploy_bounds_respect_tiers () =
  let plan = synth (three_tenants ()) "T1 >> T2 + T3" in
  let _, t1_hi = band plan 1 in
  let bounds = bounds_exn ~plan ~num_queues:4 in
  (* Some queue boundary must sit exactly at T1's tier edge so that no
     queue mixes the tiers. *)
  Alcotest.(check bool) "tier edge on a queue boundary" true
    (Array.exists (fun b -> b = t1_hi) bounds)

let test_deploy_too_few_queues () =
  let plan = synth (three_tenants ()) "T1 >> T2 >> T3" in
  match Qvisor.Deploy.queue_bounds_of_plan ~plan ~num_queues:2 with
  | Ok _ -> Alcotest.fail "fewer queues than tiers must be rejected"
  | Error (Qvisor.Error.Deploy _) -> ()
  | Error e ->
    Alcotest.failf "wrong error kind: %s" (Qvisor.Error.to_string e)

let test_deploy_sp_bank_preserves_strict () =
  Sched.Packet.reset_uid_counter 0;
  let plan = synth (three_tenants ()) "T1 >> T2 + T3" in
  let pre = Qvisor.Preprocessor.of_plan plan in
  let q =
    Qvisor.Deploy.instantiate_exn ~plan
      (Qvisor.Deploy.Sp_bank { num_queues = 4; queue_capacity_pkts = 64 })
  in
  (* Low-tier packets first, then a high-tier burst: the high tier must
     still drain first. *)
  let offer tenant rank =
    let p = mk_packet ~tenant ~rank in
    Qvisor.Preprocessor.process pre p;
    ignore (q.Sched.Qdisc.enqueue p)
  in
  offer 2 1;
  offer 3 3;
  offer 2 3;
  offer 1 9;
  offer 1 7;
  let served = List.map (fun p -> p.Sched.Packet.tenant) (Sched.Qdisc.drain q) in
  Alcotest.(check (list int)) "tier 1 drains before tier 2" [ 1; 1; 2; 3; 2 ]
    served

let test_deploy_guarantees () =
  let plan = synth (three_tenants ()) "T1 >> T2 + T3" in
  Alcotest.(check bool) "pifo exact" true
    (Qvisor.Deploy.guarantees ~plan (Qvisor.Deploy.Ideal_pifo { capacity_pkts = 1 })
    = Qvisor.Deploy.Exact);
  (match
     Qvisor.Deploy.guarantees ~plan
       (Qvisor.Deploy.Sp_bank { num_queues = 8; queue_capacity_pkts = 1 })
   with
  | Qvisor.Deploy.Tiered _ -> ()
  | _ -> Alcotest.fail "sp bank should be tiered");
  Alcotest.(check bool) "sp-pifo approximate" true
    (Qvisor.Deploy.guarantees ~plan
       (Qvisor.Deploy.Sp_pifo { num_queues = 8; queue_capacity_pkts = 1 })
    = Qvisor.Deploy.Approximate)

let prop_deploy_bounds_total =
  (* Every transformed rank maps to exactly one queue, and queue order
     follows rank order. *)
  QCheck.Test.make ~name:"queue mapping is total and monotone" ~count:200
    QCheck.(pair (int_range 2 16) (int_bound 65535))
    (fun (num_queues, rank) ->
      let plan =
        Qvisor.Synthesizer.synthesize_exn ~tenants:(three_tenants ())
          ~policy:(parse "T1 >> T2 + T3") ()
      in
      let bounds =
        match Qvisor.Deploy.queue_bounds_of_plan ~plan ~num_queues with
        | Ok bounds -> bounds
        | Error e ->
          QCheck.Test.fail_reportf "queue bounds failed: %s"
            (Qvisor.Error.to_string e)
      in
      let queue = Sched.Sp_bank.queue_of_rank ~bounds rank in
      let queue_next = Sched.Sp_bank.queue_of_rank ~bounds (rank + 1) in
      0 <= queue
      && queue < num_queues
      && queue <= queue_next)

(* ------------------------------------------------------------------ *)
(* Runtime                                                            *)
(* ------------------------------------------------------------------ *)

let runtime_tenants () =
  [
    mk_tenant ~algorithm:"pfabric" ~rank_lo:0 ~rank_hi:1000 1 "T1";
    mk_tenant ~algorithm:"edf" ~rank_lo:0 ~rank_hi:100 2 "T2";
  ]

let test_runtime_initial_plan () =
  let rt =
    Qvisor.Runtime.create_exn ~tenants:(runtime_tenants ()) ~policy:(parse "T1 >> T2") ()
  in
  Alcotest.(check int) "no resyntheses yet" 0 (Qvisor.Runtime.resyntheses rt);
  let plan = Qvisor.Runtime.plan rt in
  Alcotest.(check bool) "plan has two assignments" true
    (List.length plan.Qvisor.Synthesizer.assignments = 2)

let test_runtime_process_observes () =
  let rt =
    Qvisor.Runtime.create_exn ~tenants:(runtime_tenants ()) ~policy:(parse "T1 >> T2") ()
  in
  Alcotest.(check (option (pair int int))) "nothing observed" None
    (Qvisor.Runtime.observed_range rt ~tenant_id:1);
  List.iter
    (fun rank -> Qvisor.Runtime.process rt (mk_packet ~tenant:1 ~rank))
    [ 500; 100; 900 ];
  Alcotest.(check (option (pair int int))) "raw range observed" (Some (100, 900))
    (Qvisor.Runtime.observed_range rt ~tenant_id:1);
  (* Ids past the dense table's initial size, and negative ones. *)
  List.iter
    (fun (tenant, rank) -> Qvisor.Runtime.process rt (mk_packet ~tenant ~rank))
    [ (40, 7); (-2, 9); (40, 3) ];
  Alcotest.(check (option (pair int int))) "grown id observed" (Some (3, 7))
    (Qvisor.Runtime.observed_range rt ~tenant_id:40);
  Alcotest.(check (option (pair int int))) "negative id observed" (Some (9, 9))
    (Qvisor.Runtime.observed_range rt ~tenant_id:(-2));
  Alcotest.(check (option (pair int int))) "unseen id" None
    (Qvisor.Runtime.observed_range rt ~tenant_id:39)

let test_runtime_tenant_churn () =
  let rt =
    Qvisor.Runtime.create_exn ~tenants:(runtime_tenants ()) ~policy:(parse "T1 >> T2") ()
  in
  (* Fig. 2's t1 moment: a background tenant T3 joins at the lowest
     priority. *)
  let t3 = mk_tenant ~algorithm:"fq" ~rank_lo:0 ~rank_hi:50 3 "T3" in
  (match Qvisor.Runtime.add_tenant rt t3 ~policy:(parse "T1 >> T2 >> T3") () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "add failed: %s" (Qvisor.Error.to_string e));
  Alcotest.(check int) "one resynthesis" 1 (Qvisor.Runtime.resyntheses rt);
  let plan = Qvisor.Runtime.plan rt in
  Alcotest.(check int) "three tenants planned" 3
    (List.length plan.Qvisor.Synthesizer.assignments);
  (* And T1/T2 leave (Fig. 2 beyond t1). *)
  (match Qvisor.Runtime.remove_tenant rt ~tenant_id:1 ~policy:(parse "T2 >> T3") () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "remove failed: %s" (Qvisor.Error.to_string e));
  Alcotest.(check int) "two resyntheses" 2 (Qvisor.Runtime.resyntheses rt)

let test_runtime_add_duplicate_rejected () =
  let rt =
    Qvisor.Runtime.create_exn ~tenants:(runtime_tenants ()) ~policy:(parse "T1 >> T2") ()
  in
  let dup = mk_tenant 1 "T9" in
  Alcotest.(check bool) "duplicate id rejected" true
    (Result.is_error (Qvisor.Runtime.add_tenant rt dup ()))

let test_runtime_refresh_tightens () =
  let rt =
    Qvisor.Runtime.create_exn ~tenants:(runtime_tenants ()) ~policy:(parse "T1 >> T2") ()
  in
  (* T1 declared [0,1000] but only ever uses [0,10]: refresh should expand
     its effective resolution (its transformed band's source narrows). *)
  for rank = 0 to 10 do
    Qvisor.Runtime.process rt (mk_packet ~tenant:1 ~rank)
  done;
  Qvisor.Runtime.process rt (mk_packet ~tenant:2 ~rank:50);
  Qvisor.Runtime.process rt (mk_packet ~tenant:40 ~rank:5);
  Qvisor.Runtime.process rt (mk_packet ~tenant:(-2) ~rank:5);
  (match Qvisor.Runtime.refresh rt with
  | Ok () -> ()
  | Error e -> Alcotest.failf "refresh failed: %s" (Qvisor.Error.to_string e));
  let plan = Qvisor.Runtime.plan rt in
  let a =
    List.find
      (fun a -> a.Qvisor.Synthesizer.tenant.Qvisor.Tenant.id = 1)
      plan.Qvisor.Synthesizer.assignments
  in
  Alcotest.(check int) "observed lo adopted" 0
    a.Qvisor.Synthesizer.tenant.Qvisor.Tenant.rank_lo;
  Alcotest.(check int) "observed hi adopted" 10
    a.Qvisor.Synthesizer.tenant.Qvisor.Tenant.rank_hi;
  (* Observation window reset, for every id. *)
  List.iter
    (fun tenant_id ->
      Alcotest.(check (option (pair int int))) "window reset" None
        (Qvisor.Runtime.observed_range rt ~tenant_id))
    [ 1; 2; 40; -2 ]

let test_runtime_swap_preserves_isolation () =
  (* After a swap, packets processed through the runtime still respect the
     new plan's strict tiers. *)
  let rt =
    Qvisor.Runtime.create_exn ~tenants:(runtime_tenants ()) ~policy:(parse "T1 >> T2") ()
  in
  let t3 = mk_tenant ~rank_lo:0 ~rank_hi:50 3 "T3" in
  (match Qvisor.Runtime.add_tenant rt t3 ~policy:(parse "T3 >> T1 >> T2") () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "add failed: %s" (Qvisor.Error.to_string e));
  let p3 = mk_packet ~tenant:3 ~rank:50 in
  let p1 = mk_packet ~tenant:1 ~rank:0 in
  Qvisor.Runtime.process rt p3;
  Qvisor.Runtime.process rt p1;
  Alcotest.(check bool) "T3's worst beats T1's best after swap" true
    (p3.Sched.Packet.rank < p1.Sched.Packet.rank)

(* ------------------------------------------------------------------ *)
(* Hypervisor facade                                                  *)
(* ------------------------------------------------------------------ *)

let hypervisor () =
  Qvisor.Hypervisor.create_exn
    ~tenants:
      [
        mk_tenant ~algorithm:"pfabric" ~rank_lo:0 ~rank_hi:1000 1 "T1";
        mk_tenant ~algorithm:"edf" ~rank_lo:0 ~rank_hi:100 2 "T2";
      ]
    ~policy:"T1 >> T2" ()

let test_hv_create_and_process () =
  let hv = hypervisor () in
  let p1 = mk_packet ~tenant:1 ~rank:500 in
  let p2 = mk_packet ~tenant:2 ~rank:0 in
  Qvisor.Hypervisor.process hv p1;
  Qvisor.Hypervisor.process hv p2;
  Alcotest.(check int) "processed" 2 (Qvisor.Hypervisor.packets_processed hv);
  Alcotest.(check bool) "T1 beats T2 after transformation" true
    (p1.Sched.Packet.rank < p2.Sched.Packet.rank)

let test_hv_bad_policy () =
  Alcotest.(check bool) "parse error surfaces" true
    (Result.is_error
       (Qvisor.Hypervisor.create
          ~tenants:[ mk_tenant 1 "T1" ]
          ~policy:"T1 >>" ()))

let test_hv_analysis_and_scheduler () =
  let hv = hypervisor () in
  let report = Qvisor.Hypervisor.analyze hv in
  Alcotest.(check bool) "feasible" true report.Qvisor.Analysis.feasible;
  let q =
    Qvisor.Hypervisor.make_scheduler_exn hv
      (Qvisor.Deploy.Ideal_pifo { capacity_pkts = 16 })
  in
  let p = mk_packet ~tenant:1 ~rank:0 in
  Qvisor.Hypervisor.process hv p;
  ignore (q.Sched.Qdisc.enqueue p);
  Alcotest.(check int) "scheduler usable" 1 (q.Sched.Qdisc.length ())

let test_hv_guard_integration () =
  let hv =
    Qvisor.Hypervisor.create_exn
      ~guard:{ Qvisor.Guard.default_config with window = 10 }
      ~tenants:
        [
          mk_tenant ~rank_lo:0 ~rank_hi:100 1 "honest";
          mk_tenant ~rank_lo:0 ~rank_hi:100 2 "attacker";
        ]
      ~policy:"honest + attacker" ()
  in
  (* Attacker floods best ranks for three windows. *)
  for _ = 1 to 30 do
    Qvisor.Hypervisor.process hv (mk_packet ~tenant:2 ~rank:0)
  done;
  (match Qvisor.Hypervisor.verdict hv ~tenant_id:2 with
  | Qvisor.Guard.Malicious _ -> ()
  | _ -> Alcotest.fail "attacker not flagged");
  (* Next attack packet is parked behind honest traffic. *)
  let attack = mk_packet ~tenant:2 ~rank:0 in
  let honest = mk_packet ~tenant:1 ~rank:99 in
  Qvisor.Hypervisor.process hv attack;
  Qvisor.Hypervisor.process hv honest;
  Alcotest.(check bool) "honest worst beats parked attacker" true
    (honest.Sched.Packet.rank <= attack.Sched.Packet.rank)

let test_hv_unguarded () =
  let hv =
    Qvisor.Hypervisor.create_exn ~guarded:false
      ~tenants:[ mk_tenant ~rank_lo:0 ~rank_hi:100 1 "T1" ]
      ~policy:"T1" ()
  in
  for _ = 1 to 100 do
    Qvisor.Hypervisor.process hv (mk_packet ~tenant:1 ~rank:0)
  done;
  Alcotest.(check bool) "no guard, always conforming" true
    (Qvisor.Hypervisor.verdict hv ~tenant_id:1 = Qvisor.Guard.Conforming)

let test_hv_churn () =
  let hv = hypervisor () in
  let t3 = mk_tenant ~rank_lo:0 ~rank_hi:50 3 "T3" in
  (match Qvisor.Hypervisor.add_tenant hv t3 ~policy:"T1 >> T2 >> T3" () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "add: %s" (Qvisor.Error.to_string e));
  Alcotest.(check int) "three tenants planned" 3
    (List.length (Qvisor.Hypervisor.plan hv).Qvisor.Synthesizer.assignments);
  (match Qvisor.Hypervisor.remove_tenant hv ~tenant_id:3 ~policy:"T1 >> T2" () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "remove: %s" (Qvisor.Error.to_string e));
  Alcotest.(check bool) "bad policy on churn rejected" true
    (Result.is_error (Qvisor.Hypervisor.add_tenant hv t3 ~policy:"T1 >>" ()))

let test_hv_delay_bounds_and_pipeline () =
  let hv = hypervisor () in
  let bounds =
    Qvisor.Hypervisor.delay_bounds hv
      ~envelopes:[ (1, Qvisor.Latency.envelope ~sigma:10_000. ~rho:1e6) ]
      ~link_rate:1e9
  in
  Alcotest.(check int) "bound per tenant" 2 (List.length bounds);
  (match Qvisor.Hypervisor.compile_pipeline hv () with
  | Ok program ->
    Alcotest.(check int) "pipeline entries" 2
      (List.length program.Qvisor.Pipeline.entries)
  | Error e -> Alcotest.failf "pipeline: %s" e)

let test_hv_refresh () =
  let hv = hypervisor () in
  for rank = 0 to 9 do
    Qvisor.Hypervisor.process hv (mk_packet ~tenant:1 ~rank)
  done;
  Qvisor.Hypervisor.process hv (mk_packet ~tenant:2 ~rank:50);
  (match Qvisor.Hypervisor.refresh hv with
  | Ok () -> ()
  | Error e -> Alcotest.failf "refresh: %s" (Qvisor.Error.to_string e));
  let a =
    List.find
      (fun a -> a.Qvisor.Synthesizer.tenant.Qvisor.Tenant.id = 1)
      (Qvisor.Hypervisor.plan hv).Qvisor.Synthesizer.assignments
  in
  Alcotest.(check int) "observed range adopted" 9
    a.Qvisor.Synthesizer.tenant.Qvisor.Tenant.rank_hi

(* ------------------------------------------------------------------ *)
(* Serialization                                                      *)
(* ------------------------------------------------------------------ *)

let test_serialize_tenant_round_trip () =
  let t = mk_tenant ~algorithm:"pfabric" ~rank_lo:3 ~rank_hi:99 ~weight:2.5 7 "T7" in
  match Qvisor.Serialize.tenant_of_json (Qvisor.Serialize.tenant_to_json t) with
  | Ok t' ->
    Alcotest.(check string) "name" t.Qvisor.Tenant.name t'.Qvisor.Tenant.name;
    Alcotest.(check int) "id" t.Qvisor.Tenant.id t'.Qvisor.Tenant.id;
    Alcotest.(check int) "lo" t.Qvisor.Tenant.rank_lo t'.Qvisor.Tenant.rank_lo;
    Alcotest.(check int) "hi" t.Qvisor.Tenant.rank_hi t'.Qvisor.Tenant.rank_hi;
    Alcotest.(check (float 1e-9)) "weight" t.Qvisor.Tenant.weight t'.Qvisor.Tenant.weight
  | Error e -> Alcotest.failf "round trip failed: %s" (Qvisor.Error.to_string e)

let test_serialize_policy_round_trip () =
  let p = parse "T1 >> T2 > (T3 + T4) >> T5" in
  match Qvisor.Serialize.policy_of_json (Qvisor.Serialize.policy_to_json p) with
  | Ok p' -> Alcotest.(check bool) "same policy" true (p = p')
  | Error e -> Alcotest.failf "round trip failed: %s" (Qvisor.Error.to_string e)

let test_serialize_spec_round_trip () =
  let tenants = three_tenants () in
  let policy = parse "T1 >> T2 + T3" in
  let json = Qvisor.Serialize.spec_to_json ~tenants ~policy in
  (* Through text, as a file would. *)
  let text = Engine.Json.to_string ~pretty:true json in
  let reparsed =
    match Engine.Json.of_string text with
    | Ok v -> v
    | Error e -> Alcotest.failf "json parse: %s" e
  in
  match Qvisor.Serialize.spec_of_json reparsed with
  | Ok (tenants', policy') ->
    Alcotest.(check int) "tenant count" 3 (List.length tenants');
    Alcotest.(check bool) "policy" true (policy = policy');
    (* The round-tripped spec synthesizes to the same plan. *)
    let plan = Qvisor.Synthesizer.synthesize_exn ~tenants ~policy () in
    let plan' = Qvisor.Synthesizer.synthesize_exn ~tenants:tenants' ~policy:policy' () in
    List.iter2
      (fun a b ->
        Alcotest.(check bool) "same band" true
          (a.Qvisor.Synthesizer.band = b.Qvisor.Synthesizer.band))
      plan.Qvisor.Synthesizer.assignments plan'.Qvisor.Synthesizer.assignments
  | Error e ->
    Alcotest.failf "spec round trip failed: %s" (Qvisor.Error.to_string e)

let test_serialize_spec_errors () =
  let bad json_text =
    match Engine.Json.of_string json_text with
    | Error _ -> true
    | Ok v -> Result.is_error (Qvisor.Serialize.spec_of_json v)
  in
  Alcotest.(check bool) "missing tenants" true (bad "{\"policy\": \"T1\"}");
  Alcotest.(check bool) "bad tenant shape" true
    (bad "{\"tenants\": [{\"id\": 1}], \"policy\": \"T1\"}");
  Alcotest.(check bool) "bad policy string" true
    (bad
       "{\"tenants\": [{\"id\":1,\"name\":\"T1\",\"algorithm\":\"x\",\"rank_lo\":0,\"rank_hi\":1,\"weight\":1}], \"policy\": \"T1 >>\"}")

let test_serialize_plan_shape () =
  let plan =
    Qvisor.Synthesizer.synthesize_exn ~tenants:(three_tenants ())
      ~policy:(parse "T1 >> T2 + T3") ()
  in
  let json = Qvisor.Serialize.plan_to_json plan in
  Alcotest.(check (option string)) "policy field" (Some "T1 >> T2 + T3")
    (Option.bind (Engine.Json.member "policy" json) Engine.Json.to_str);
  match Option.bind (Engine.Json.member "assignments" json) Engine.Json.to_list with
  | Some l -> Alcotest.(check int) "three assignments" 3 (List.length l)
  | None -> Alcotest.fail "no assignments list"

let test_serialize_report_shape () =
  let plan =
    Qvisor.Synthesizer.synthesize_exn ~tenants:(three_tenants ())
      ~policy:(parse "T1 >> T2 + T3") ()
  in
  let json = Qvisor.Serialize.report_to_json (Qvisor.Analysis.check plan) in
  Alcotest.(check (option bool)) "feasible" (Some true)
    (Option.bind (Engine.Json.member "feasible" json) Engine.Json.to_bool);
  match Option.bind (Engine.Json.member "pairs" json) Engine.Json.to_list with
  | Some (first :: _) ->
    Alcotest.(check bool) "pair has required field" true
      (Engine.Json.member "required" first <> None)
  | Some [] | None -> Alcotest.fail "no pairs"

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "qvisor"
    [
      ( "policy",
        [
          Alcotest.test_case "single" `Quick test_policy_single;
          Alcotest.test_case "paper example" `Quick test_policy_paper_example;
          Alcotest.test_case "precedence" `Quick test_policy_precedence;
          Alcotest.test_case "whitespace/braces" `Quick test_policy_whitespace_braces;
          Alcotest.test_case "errors" `Quick test_policy_errors;
          Alcotest.test_case "tenant names" `Quick test_policy_tenant_names;
          Alcotest.test_case "validate" `Quick test_policy_validate;
          Alcotest.test_case "validate error order" `Quick
            test_policy_validate_error_order;
          Alcotest.test_case "validate scales" `Quick
            test_policy_validate_scales;
          Alcotest.test_case "strict tiers" `Quick test_policy_strict_tiers;
          qc prop_policy_round_trip;
        ] );
      ( "transform",
        [
          Alcotest.test_case "shift" `Quick test_transform_shift;
          Alcotest.test_case "normalize affine" `Quick test_transform_normalize_affine;
          Alcotest.test_case "normalize clamps" `Quick test_transform_normalize_clamps;
          Alcotest.test_case "quantization levels" `Quick test_transform_quantization_levels;
          Alcotest.test_case "compose" `Quick test_transform_compose;
          Alcotest.test_case "compose identity" `Quick test_transform_compose_identity;
          Alcotest.test_case "invalid" `Quick test_transform_invalid;
          qc prop_normalize_monotone;
          qc prop_normalize_stays_in_dst;
          qc prop_transform_range_sound;
        ] );
      ( "synthesizer",
        [
          Alcotest.test_case "strict disjoint" `Quick test_synth_strict_disjoint;
          Alcotest.test_case "share aligned" `Quick test_synth_share_same_start;
          Alcotest.test_case "prefer offset" `Quick test_synth_prefer_offset;
          Alcotest.test_case "weighted share" `Quick test_synth_weighted_share;
          Alcotest.test_case "covers rank space" `Quick test_synth_covers_rank_space;
          Alcotest.test_case "errors" `Quick test_synth_errors;
          Alcotest.test_case "fallback is worst" `Quick test_synth_fallback_is_worst;
          qc prop_synth_strict_tiers_never_overlap;
          qc prop_random_policies_synthesize_feasible;
          qc prop_random_policies_preprocess_in_band;
          qc prop_random_policies_round_trip_serialization;
        ] );
      ( "preprocessor",
        [
          Alcotest.test_case "rewrites in band" `Quick test_preprocessor_rewrites_in_band;
          Alcotest.test_case "unknown tenant" `Quick test_preprocessor_unknown_tenant;
          Alcotest.test_case "counters" `Quick test_preprocessor_counters;
          Alcotest.test_case "Fig. 3 end to end" `Quick test_fig3_end_to_end;
          Alcotest.test_case "Fig. 3 naive clash" `Quick test_fig3_naive_clash;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "strict isolated" `Quick test_analysis_strict_isolated;
          Alcotest.test_case "relations" `Quick test_analysis_relations;
          Alcotest.test_case "effective band" `Quick test_analysis_effective_band;
          Alcotest.test_case "detects violation" `Quick test_analysis_detects_violation;
          Alcotest.test_case "starvation" `Quick test_analysis_starvation;
          Alcotest.test_case "paper policy" `Quick test_analysis_paper_policy;
        ] );
      ( "deploy",
        [
          Alcotest.test_case "bounds cover space" `Quick test_deploy_bounds_cover_space;
          Alcotest.test_case "bounds respect tiers" `Quick test_deploy_bounds_respect_tiers;
          Alcotest.test_case "too few queues" `Quick test_deploy_too_few_queues;
          Alcotest.test_case "sp bank strict" `Quick test_deploy_sp_bank_preserves_strict;
          Alcotest.test_case "guarantees" `Quick test_deploy_guarantees;
          qc prop_deploy_bounds_total;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "tenant round trip" `Quick test_serialize_tenant_round_trip;
          Alcotest.test_case "policy round trip" `Quick test_serialize_policy_round_trip;
          Alcotest.test_case "spec round trip" `Quick test_serialize_spec_round_trip;
          Alcotest.test_case "spec errors" `Quick test_serialize_spec_errors;
          Alcotest.test_case "plan shape" `Quick test_serialize_plan_shape;
          Alcotest.test_case "report shape" `Quick test_serialize_report_shape;
        ] );
      ( "hypervisor",
        [
          Alcotest.test_case "create+process" `Quick test_hv_create_and_process;
          Alcotest.test_case "bad policy" `Quick test_hv_bad_policy;
          Alcotest.test_case "analysis+scheduler" `Quick test_hv_analysis_and_scheduler;
          Alcotest.test_case "guard integration" `Quick test_hv_guard_integration;
          Alcotest.test_case "unguarded" `Quick test_hv_unguarded;
          Alcotest.test_case "churn" `Quick test_hv_churn;
          Alcotest.test_case "refresh" `Quick test_hv_refresh;
          Alcotest.test_case "delay bounds + pipeline" `Quick test_hv_delay_bounds_and_pipeline;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "initial plan" `Quick test_runtime_initial_plan;
          Alcotest.test_case "observes" `Quick test_runtime_process_observes;
          Alcotest.test_case "tenant churn" `Quick test_runtime_tenant_churn;
          Alcotest.test_case "duplicate rejected" `Quick test_runtime_add_duplicate_rejected;
          Alcotest.test_case "refresh tightens" `Quick test_runtime_refresh_tightens;
          Alcotest.test_case "swap preserves isolation" `Quick test_runtime_swap_preserves_isolation;
        ] );
    ]
