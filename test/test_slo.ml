(* SLO derivation and audit, health-machine hysteresis, and the
   Prometheus exposition round trip — the judgment layer's contracts. *)

module Slo = Qvisor.Slo
module Health = Engine.Health
module Exp = Engine.Exposition

let plan_of policy =
  let tenants =
    [
      Qvisor.Tenant.make ~algorithm:"pfabric" ~rank_lo:0 ~rank_hi:30_000 ~id:0
        ~name:"T1" ();
      Qvisor.Tenant.make ~algorithm:"edf" ~rank_lo:0 ~rank_hi:100 ~id:1
        ~name:"T2" ();
    ]
  in
  Qvisor.Synthesizer.synthesize_exn ~tenants
    ~policy:(Qvisor.Policy.parse_exn policy)
    ()

(* ------------------------------------------------------------------ *)
(* Objective derivation                                               *)
(* ------------------------------------------------------------------ *)

let test_derive_strict_floor () =
  let objectives = Slo.derive ~plan:(plan_of "T1 >> T2") () in
  let budget name =
    (List.find
       (fun (o : Slo.objective) -> o.Slo.tenant.Qvisor.Tenant.name = name)
       objectives)
      .Slo.drop_budget
  in
  Alcotest.(check (float 1e-9)) "top strict tier keeps the real budget" 0.02
    (budget "T1");
  Alcotest.(check (float 1e-9))
    "below a strict edge only the sanity floor remains" 0.5 (budget "T2");
  let shared = Slo.derive ~plan:(plan_of "T1 + T2") () in
  List.iter
    (fun (o : Slo.objective) ->
      Alcotest.(check (float 1e-9))
        (o.Slo.tenant.Qvisor.Tenant.name ^ " under + keeps the real budget")
        0.02 o.Slo.drop_budget)
    shared;
  List.iter
    (fun (o : Slo.objective) ->
      Alcotest.(check bool) "no envelopes, no delay bound" true
        (o.Slo.delay_bound = None);
      Alcotest.(check bool) "rank-error budget has headroom" true
        (o.Slo.rank_error_budget >= 1.))
    objectives

let test_derive_validation () =
  let plan = plan_of "T1 >> T2" in
  Alcotest.check_raises "drop_budget <= 0"
    (Invalid_argument "Slo.derive: drop_budget <= 0") (fun () ->
      ignore (Slo.derive ~plan ~drop_budget:0. ()))

(* ------------------------------------------------------------------ *)
(* Burn windows                                                       *)
(* ------------------------------------------------------------------ *)

let audit_with ~window ~drop_budget =
  let objectives = Slo.derive ~plan:(plan_of "T1 + T2") ~drop_budget () in
  Slo.create
    ~config:{ Slo.default_audit_config with window }
    ~objectives ()

let pkt tenant = Sched.Packet.make ~tenant ~rank:10 ~flow:1 ~size:1500 ()

let test_burn_window_capacity_one () =
  (* window = 1: every attempt closes a window, so the fast burn flips
     between 0 (clean attempt) and 1/budget with a one-attempt lag on
     drops (the drop lands after its attempt already closed). *)
  let t = audit_with ~window:1 ~drop_budget:0.5 in
  let p = pkt 0 in
  Slo.on_enqueue t p;
  (match Slo.status t ~tenant_id:0 with
  | None -> Alcotest.fail "tenant 0 audited"
  | Some st ->
    Alcotest.(check (float 1e-9)) "clean window burns nothing" 0. st.Slo.fast_burn);
  Slo.on_drop t p;
  Slo.on_enqueue t p;
  (match Slo.status t ~tenant_id:0 with
  | None -> Alcotest.fail "tenant 0 audited"
  | Some st ->
    Alcotest.(check (float 1e-9)) "dropped window burns 1/budget" 2.
      st.Slo.fast_burn;
    Alcotest.(check int) "attempts tracked" 2 st.Slo.attempts;
    Alcotest.(check int) "drops tracked" 1 st.Slo.drops);
  (* Sustained total loss with window 1 must breach, not wedge. *)
  for _ = 1 to 8 do
    Slo.on_drop t p;
    Slo.on_enqueue t p
  done;
  let signal, _detail = Slo.evaluate t ~tenant_id:0 in
  Alcotest.(check bool) "sustained loss breaches" true (signal = Health.Breach)

let test_unknown_tenant_ignored () =
  let t = audit_with ~window:4 ~drop_budget:0.02 in
  Slo.on_enqueue t (pkt 99);
  Slo.on_drop t (pkt 99);
  Slo.on_delay t ~tenant_id:99 1.0;
  Slo.on_rank_error t ~tenant_id:99 1.0;
  Slo.on_tie_inversion t ~tenant_id:99;
  Alcotest.(check bool) "unknown tenants have no status" true
    (Slo.status t ~tenant_id:99 = None);
  let signal, detail = Slo.evaluate t ~tenant_id:99 in
  Alcotest.(check bool) "unknown tenants pass" true (signal = Health.Pass);
  Alcotest.(check string) "with the no-objective detail" "no objective" detail

let test_tie_inversion_breaches () =
  let t = audit_with ~window:256 ~drop_budget:0.02 in
  Slo.on_enqueue t (pkt 0);
  Slo.on_tie_inversion t ~tenant_id:0;
  let signal, detail = Slo.evaluate t ~tenant_id:0 in
  Alcotest.(check bool) "one tie inversion is a breach" true
    (signal = Health.Breach);
  Alcotest.(check bool) "the detail names the inversion" true
    (String.length detail > 0
    && String.sub detail 0 1 = "1")

(* ------------------------------------------------------------------ *)
(* Health hysteresis                                                  *)
(* ------------------------------------------------------------------ *)

let test_health_never_flaps () =
  let h = Health.create () in
  Health.watch h ~id:0 ~name:"t";
  for i = 1 to 100 do
    Health.observe h ~id:0 ~time:(float_of_int i)
      (if i mod 2 = 0 then Health.Warn else Health.Pass);
    Alcotest.(check bool) "alternating pass/warn stays healthy" true
      (Health.state h ~id:0 = Health.Healthy)
  done;
  Alcotest.(check int) "and never transitions" 0 (Health.alerts_emitted h)

let test_health_ladder () =
  let h = Health.create () in
  Health.watch h ~id:0 ~name:"t";
  Health.observe h ~id:0 ~time:0.01 Health.Breach;
  Alcotest.(check bool) "one breach degrades" true
    (Health.state h ~id:0 = Health.Degraded);
  Health.observe h ~id:0 ~time:0.02 Health.Breach;
  Alcotest.(check bool) "two breaches violate" true
    (Health.state h ~id:0 = Health.Violating);
  (* Recovery requires persistent cleanliness, one strike per pass. *)
  Health.observe h ~id:0 ~time:0.03 Health.Pass;
  Alcotest.(check bool) "one pass is not forgiveness" true
    (Health.state h ~id:0 <> Health.Healthy);
  for i = 4 to 6 do
    Health.observe h ~id:0 ~time:(0.01 *. float_of_int i) Health.Pass
  done;
  Alcotest.(check bool) "persistent passes recover" true
    (Health.state h ~id:0 = Health.Healthy)

(* ------------------------------------------------------------------ *)
(* Exposition                                                         *)
(* ------------------------------------------------------------------ *)

let test_exposition_disabled () =
  Alcotest.(check int) "disabled registry exposes nothing" 0
    (List.length (Exp.families_of_registry Engine.Telemetry.disabled))

let test_exposition_empty () =
  let text = Exp.render (Engine.Telemetry.create ()) in
  Alcotest.(check bool) "renders something" true (String.length text > 0);
  match Exp.parse text with
  | Error e -> Alcotest.fail e
  | Ok lines ->
    (* The render is never fully empty: every scrape carries its own
       monotonic timestamp gauge (and nothing else here). *)
    let samples =
      List.filter_map
        (function Exp.Sample s -> Some s | _ -> None)
        lines
    in
    Alcotest.(check int) "only the scrape timestamp in an empty registry" 1
      (List.length samples);
    (match samples with
    | [ s ] ->
      Alcotest.(check string) "it is the scrape timestamp"
        "qvisor_scrape_timestamp_seconds" s.Exp.sample_name
    | _ -> ());
    Alcotest.(check bool) "terminated by # EOF" true
      (List.exists (function Exp.Comment " EOF" -> true | _ -> false) lines)

let test_sanitize () =
  Alcotest.(check string) "invalid chars collapse" "net_port_3_drop"
    (Exp.sanitize_name "net.port.3-drop");
  Alcotest.(check string) "leading digit prefixed" "_9lives"
    (Exp.sanitize_name "9lives");
  Alcotest.(check string) "empty becomes _" "_" (Exp.sanitize_name "");
  Alcotest.check_raises "family rejects an unsanitized name"
    (Invalid_argument "Exposition.family: invalid name \"no spaces\"")
    (fun () -> ignore (Exp.family ~name:"no spaces" ~help:"h" Exp.Counter []))

let test_parser_strictness () =
  (match Exp.parse "foo 1\n" with
  | Error e ->
    Alcotest.(check bool) "undeclared sample names its line" true
      (String.length e > 0)
  | Ok _ -> Alcotest.fail "sample without # TYPE must not parse");
  match Exp.parse "# TYPE foo counter\n# TYPE foo counter\nfoo 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate # TYPE must not parse"

(* Families whose values are wall-clock measurements rather than simulated
   behaviour; the golden digest below leaves them out. *)
let wall_clock_family =
  Str.regexp
    "qvisor_\\(gc_\\|perf_stage_[a-z_]+_\\(per_sec\\|alloc_bytes_per_event\\)\\|sim_wall_seconds\\|scrape_timestamp\\)"

let metric_name line =
  match String.split_on_char ' ' line with
  | "#" :: _ :: name :: _ -> name
  | first :: _ -> (
    match String.index_opt first '{' with
    | Some i -> String.sub first 0 i
    | None -> first)
  | [] -> ""

let simulated_exposition text =
  String.split_on_char '\n' text
  |> List.filter (fun line ->
         not (Str.string_match wall_clock_family (metric_name line) 0))
  |> String.concat "\n"

let digest s = Digest.to_hex (Digest.string s)

(* The property the test-side parser exists for: every line the renderer
   emits for a real, full registry parses, and re-renders verbatim. *)
let test_roundtrip_single_run () =
  let tel = Engine.Telemetry.create () in
  let params =
    {
      Experiments.Fig4.quick with
      Experiments.Fig4.duration = 0.04;
      warmup = 0.01;
      drain = 0.2;
      load = 0.5;
    }
  in
  (match
     Experiments.Fig4.run ~telemetry:tel ~slo:true params
       (Experiments.Fig4.Qvisor_policy "pfabric >> edf")
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Qvisor.Error.to_string e));
  let text = Exp.render ~tenant_names:[ (0, "pfabric"); (1, "edf") ] tel in
  (match Exp.parse text with
  | Error e -> Alcotest.fail e
  | Ok lines ->
    Alcotest.(check bool) "a full run exposes samples" true
      (List.exists (function Exp.Sample _ -> true | _ -> false) lines));
  List.iteri
    (fun i line ->
      match Exp.parse_line line with
      | Error e -> Alcotest.fail (Printf.sprintf "line %d: %s" (i + 1) e)
      | Ok parsed ->
        Alcotest.(check string)
          (Printf.sprintf "line %d round-trips" (i + 1))
          line (Exp.render_line parsed))
    (String.split_on_char '\n' (String.trim text));
  (* Golden behaviour pins, recorded from the reference implementation:
     the simulated part of the exposition, and the health alert stream of
     the same run under an injected LIFO-ties fault. *)
  Alcotest.(check string) "golden exposition digest"
    "522152d836d10a9fbe2d9d8482c565ce"
    (digest (simulated_exposition text));
  let alerts_file = Filename.temp_file "qvisor-golden" ".ndjson" in
  let oc = open_out alerts_file in
  (match
     Experiments.Fig4.run ~telemetry:(Engine.Telemetry.create ()) ~slo:true
       ~alerts:oc
       {
         params with
         Experiments.Fig4.inject_qdisc =
           Some (Conformance.Fault.qdisc Conformance.Fault.Lifo_ties);
       }
       (Experiments.Fig4.Qvisor_policy "pfabric >> edf")
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Qvisor.Error.to_string e));
  close_out oc;
  let alerts = In_channel.with_open_bin alerts_file In_channel.input_all in
  Sys.remove alerts_file;
  Alcotest.(check string) "golden lifo-ties alert stream digest"
    "cc6ca4072d654db28007230f33e451c4" (digest alerts)

(* Label values are untrusted (tenant names arrive over the control
   socket): the escaping of backslash / double-quote / newline must hold
   through a full render → strict-parse round trip, raw value restored. *)
let test_hostile_label_values () =
  Alcotest.(check string) "escape backslash" {|a\\b|}
    (Exp.escape_label_value {|a\b|});
  Alcotest.(check string) "escape quote" {|say \"hi\"|}
    (Exp.escape_label_value {|say "hi"|});
  Alcotest.(check string) "escape newline" {|two\nlines|}
    (Exp.escape_label_value "two\nlines");
  List.iter
    (fun hostile ->
      let tel = Engine.Telemetry.create () in
      Engine.Telemetry.Counter.add
        (Engine.Telemetry.counter tel "net.tenant.0.drop")
        7;
      let text = Exp.render ~tenant_names:[ (0, hostile) ] tel in
      match Exp.parse text with
      | Error e -> Alcotest.failf "hostile name %S: %s" hostile e
      | Ok lines ->
        let tenant_label =
          List.find_map
            (function
              | Exp.Sample s
                when s.Exp.sample_name = "qvisor_net_tenant_drop_total" ->
                List.assoc_opt "tenant" s.Exp.labels
              | _ -> None)
            lines
        in
        (match tenant_label with
        | Some v ->
          Alcotest.(check string)
            (Printf.sprintf "label value %S survives the round trip" hostile)
            hostile v
        | None -> Alcotest.failf "hostile name %S: tenant sample missing" hostile);
        (* And every emitted line stays canonical under re-rendering. *)
        List.iteri
          (fun i line ->
            match Exp.parse_line line with
            | Error e -> Alcotest.failf "line %d: %s" (i + 1) e
            | Ok parsed ->
              Alcotest.(check string)
                (Printf.sprintf "line %d canonical" (i + 1))
                line (Exp.render_line parsed))
          (String.split_on_char '\n' (String.trim text)))
    [
      {|back\slash|};
      {|quo"te|};
      "new\nline";
      "all\\three\"at\nonce";
      {|trailing\|};
    ]

(* ------------------------------------------------------------------ *)
(* Guard verdict counters                                             *)
(* ------------------------------------------------------------------ *)

let test_guard_transition_counters () =
  let tel = Engine.Telemetry.create () in
  let tenants =
    [
      Qvisor.Tenant.make ~algorithm:"stfq" ~rank_lo:0 ~rank_hi:100 ~id:0
        ~name:"T1" ();
    ]
  in
  let guard = Qvisor.Guard.create ~telemetry:tel ~tenants () in
  let suspicious = Engine.Telemetry.counter tel "guard.suspicious" in
  let malicious = Engine.Telemetry.counter tel "guard.malicious" in
  (* Three dirty windows walk the ladder Conforming -> Suspicious ->
     Malicious; each *entry* ticks its counter exactly once. *)
  let window = Qvisor.Guard.default_config.Qvisor.Guard.window in
  for _ = 1 to 3 * window do
    Qvisor.Guard.observe guard
      (Sched.Packet.make ~tenant:0 ~rank:10_000 ~flow:1 ~size:1500 ())
  done;
  (match Qvisor.Guard.verdict guard ~tenant_id:0 with
  | Qvisor.Guard.Malicious _ -> ()
  | _ -> Alcotest.fail "three dirty windows convict");
  Alcotest.(check int) "suspicious entered once" 1
    (Engine.Telemetry.Counter.value suspicious);
  Alcotest.(check int) "malicious entered once" 1
    (Engine.Telemetry.Counter.value malicious)

(* ------------------------------------------------------------------ *)
(* End-to-end verdicts                                                *)
(* ------------------------------------------------------------------ *)

let tiny_params =
  {
    Experiments.Fig4.quick with
    Experiments.Fig4.duration = 0.04;
    warmup = 0.01;
    drain = 0.2;
    load = 0.5;
  }

let verdict_fingerprint (r : Experiments.Fig4.result) =
  match r.Experiments.Fig4.slo with
  | None -> []
  | Some report ->
    List.map
      (fun ((tn : Qvisor.Tenant.t), state, (st : Slo.status)) ->
        ( tn.Qvisor.Tenant.name,
          Health.state_to_string state,
          st.Slo.attempts,
          st.Slo.drops,
          st.Slo.tie_inversions ))
      report.Experiments.Fig4.verdicts

let test_jobs_invariant_verdicts () =
  let sweep jobs =
    match
      Experiments.Fig4.sweep ~jobs ~slo:true tiny_params ~loads:[ 0.5 ]
        ~schemes:
          [
            Experiments.Fig4.Qvisor_policy "pfabric >> edf";
            Experiments.Fig4.Qvisor_policy "pfabric + edf";
          ]
    with
    | Ok results -> List.map verdict_fingerprint results
    | Error e -> Alcotest.fail (Qvisor.Error.to_string e)
  in
  let one = sweep 1 and four = sweep 4 in
  Alcotest.(check bool) "slo audited every job" true
    (List.for_all (fun v -> v <> []) one);
  Alcotest.(check bool) "jobs=1 and jobs=4 verdicts identical" true
    (one = four)

let test_injected_fault_fails_gate () =
  let run inject =
    match
      Experiments.Fig4.run ~slo:true
        { tiny_params with Experiments.Fig4.inject_qdisc = inject }
        (Experiments.Fig4.Qvisor_policy "pfabric >> edf")
    with
    | Ok r -> r
    | Error e -> Alcotest.fail (Qvisor.Error.to_string e)
  in
  let healthy = run None in
  (match healthy.Experiments.Fig4.slo with
  | None -> Alcotest.fail "slo report present"
  | Some report ->
    List.iter
      (fun (_, _, (st : Slo.status)) ->
        Alcotest.(check int) "a conforming backend never inverts ties" 0
          st.Slo.tie_inversions)
      report.Experiments.Fig4.verdicts);
  let lifo =
    run (Some (Conformance.Fault.qdisc Conformance.Fault.Lifo_ties))
  in
  match lifo.Experiments.Fig4.slo with
  | None -> Alcotest.fail "slo report present"
  | Some report ->
    Alcotest.(check bool) "lifo-ties inverts ties" true
      (List.exists
         (fun (_, _, (st : Slo.status)) -> st.Slo.tie_inversions > 0)
         report.Experiments.Fig4.verdicts);
    Alcotest.(check bool) "and ends the run violating" true
      (List.exists
         (fun (_, state, _) -> state = Health.Violating)
         report.Experiments.Fig4.verdicts)

let () =
  Alcotest.run "slo"
    [
      ( "derive",
        [
          Alcotest.test_case "strict-edge sanity floor" `Quick
            test_derive_strict_floor;
          Alcotest.test_case "validation" `Quick test_derive_validation;
        ] );
      ( "audit",
        [
          Alcotest.test_case "burn window capacity 1" `Quick
            test_burn_window_capacity_one;
          Alcotest.test_case "unknown tenant ignored" `Quick
            test_unknown_tenant_ignored;
          Alcotest.test_case "tie inversion breaches" `Quick
            test_tie_inversion_breaches;
        ] );
      ( "health",
        [
          Alcotest.test_case "alternating windows never flap" `Quick
            test_health_never_flaps;
          Alcotest.test_case "strike ladder" `Quick test_health_ladder;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "disabled registry" `Quick
            test_exposition_disabled;
          Alcotest.test_case "empty registry" `Quick test_exposition_empty;
          Alcotest.test_case "name sanitization" `Quick test_sanitize;
          Alcotest.test_case "parser strictness" `Quick test_parser_strictness;
          Alcotest.test_case "hostile label values" `Quick
            test_hostile_label_values;
          Alcotest.test_case "single-run round trip" `Slow
            test_roundtrip_single_run;
        ] );
      ( "guard",
        [
          Alcotest.test_case "verdict transition counters" `Quick
            test_guard_transition_counters;
        ] );
      ( "verdicts",
        [
          Alcotest.test_case "jobs=1 vs jobs=4 identical" `Slow
            test_jobs_invariant_verdicts;
          Alcotest.test_case "injected fault fails the gate" `Slow
            test_injected_fault_fails_gate;
        ] );
    ]
