(* qvisor-cli: synthesize and inspect joint scheduling plans from the
   command line.

   Example:
     qvisor-cli plan --tenant 'T1:pfabric:0:30000' --tenant 'T2:edf:0:100' \
                     --policy 'T1 >> T2' --queues 8
*)

open Cmdliner

(* Tenant spec syntax: NAME:ALGO:LO:HI[:WEIGHT].  A typed Cmdliner
   converter, so a malformed spec is a one-line argument error instead of
   an uncaught exception. *)
type tenant_spec = {
  ts_name : string;
  ts_algo : string;
  ts_lo : int;
  ts_hi : int;
  ts_weight : float option;
}

let tenant_conv =
  let parse spec =
    let bad what field =
      Error
        (`Msg
           (Printf.sprintf "tenant spec %S: %s %S is not a number" spec what
              field))
    in
    let int_field what s k =
      match int_of_string_opt s with Some v -> k v | None -> bad what s
    in
    match String.split_on_char ':' spec with
    | [ name; algo; lo; hi ] ->
      int_field "rank bound" lo (fun ts_lo ->
          int_field "rank bound" hi (fun ts_hi ->
              Ok { ts_name = name; ts_algo = algo; ts_lo; ts_hi; ts_weight = None }))
    | [ name; algo; lo; hi; w ] ->
      int_field "rank bound" lo (fun ts_lo ->
          int_field "rank bound" hi (fun ts_hi ->
              match float_of_string_opt w with
              | None -> bad "weight" w
              | Some weight ->
                Ok
                  {
                    ts_name = name;
                    ts_algo = algo;
                    ts_lo;
                    ts_hi;
                    ts_weight = Some weight;
                  }))
    | _ ->
      Error
        (`Msg
           (Printf.sprintf
              "bad tenant spec %S (expected NAME:ALGO:LO:HI[:WEIGHT])" spec))
  in
  let print ppf ts =
    Format.fprintf ppf "%s:%s:%d:%d%s" ts.ts_name ts.ts_algo ts.ts_lo ts.ts_hi
      (match ts.ts_weight with
      | None -> ""
      | Some w -> Printf.sprintf ":%g" w)
  in
  Arg.conv (parse, print)

let tenant_of_spec idx ts =
  Qvisor.Tenant.make ~algorithm:ts.ts_algo ~rank_lo:ts.ts_lo ~rank_hi:ts.ts_hi
    ?weight:ts.ts_weight ~id:idx ~name:ts.ts_name ()

let tenants_arg =
  let doc = "Tenant spec NAME:ALGO:LO:HI[:WEIGHT]; repeatable." in
  Arg.(
    value & opt_all tenant_conv [] & info [ "tenant"; "t" ] ~docv:"TENANT" ~doc)

let spec_file_arg =
  let doc =
    "Read the tenants and policy from a JSON spec file (the format \
     emitted under \"spec\" by `plan --json`); overrides --tenant/--policy."
  in
  Arg.(value & opt (some string) None & info [ "spec-file" ] ~docv:"FILE" ~doc)

(* Resolve the (tenants, policy) inputs from either a spec file or the
   command-line flags. *)
let resolve_spec spec_file tenant_specs policy_str =
  match spec_file with
  | Some path -> (
    let contents =
      try In_channel.with_open_text path In_channel.input_all
      with Sys_error e ->
        Format.eprintf "cannot read %s: %s@." path e;
        exit 1
    in
    match Engine.Json.of_string contents with
    | Error e ->
      Format.eprintf "json error in %s: %s@." path e;
      exit 1
    | Ok json -> (
      match Qvisor.Serialize.spec_of_json json with
      | Ok spec -> spec
      | Error e ->
        Format.eprintf "spec error in %s: %s@." path (Qvisor.Error.to_string e);
        exit 1))
  | None ->
    if tenant_specs = [] then begin
      Format.eprintf "no tenants: pass --tenant or --spec-file@.";
      exit 1
    end;
    let policy_str =
      match policy_str with
      | Some s -> s
      | None ->
        Format.eprintf "no policy: pass --policy or --spec-file@.";
        exit 1
    in
    let tenants = List.mapi tenant_of_spec tenant_specs in
    let policy =
      match Qvisor.Policy.parse policy_str with
      | Ok p -> p
      | Error e ->
        Format.eprintf "policy error: %s@." (Qvisor.Error.to_string e);
        exit 1
    in
    (tenants, policy)

let policy_arg =
  let doc = "Operator policy, e.g. 'T1 >> T2 + T3'." in
  Arg.(value & opt (some string) None & info [ "policy"; "p" ] ~docv:"POLICY" ~doc)

let queues_arg =
  let doc = "Also derive a strict-priority queue mapping for this many queues." in
  Arg.(value & opt (some int) None & info [ "queues"; "q" ] ~docv:"N" ~doc)

let levels_arg =
  let doc = "Quantization levels per tenant." in
  Arg.(value & opt (some int) None & info [ "levels" ] ~docv:"L" ~doc)

let json_arg =
  let doc = "Emit the plan and analysis as JSON instead of text." in
  Arg.(value & flag & info [ "json" ] ~doc)

let pipeline_arg =
  let doc =
    "Also compile the plan to a match-action pipeline (multiply-shift-add      actions) and print the table with its worst-case rank error."
  in
  Arg.(value & flag & info [ "pipeline" ] ~doc)

let instruments_arg =
  Cliopts.instruments
    ~telemetry_doc:
      "Dry-run the synthesized pre-processor over each tenant's declared \
       rank range (plus one unknown-tenant packet) and report the telemetry \
       registry: match-table vs fallback hit counts and the live \
       rank-approximation error distribution."
    ~trace_doc:
      "With --telemetry, write the dry-run's per-packet \"preprocess\" \
       events to $(docv) as NDJSON (the \"t\" field is the packet index — \
       there is no simulation clock in the control plane)."
    ()

(* Cap the per-tenant label sweep so wide rank ranges stay cheap. *)
let max_sweep_labels = 4096

(* One dry-run partition: a contiguous slice of the packet sequence that
   can run on its own domain with its own registry.  Sequence offsets are
   precomputed from the tenants' declared ranges, so the trace's "t"
   field (the packet index) is identical for any worker count. *)
type dry_run_part = {
  part_index : int;
  seq_offset : int;
  shots : (int * int) list;  (* (tenant id, raw label) *)
}

let dry_run_parts tenants =
  let max_id =
    List.fold_left (fun m t -> Stdlib.max m t.Qvisor.Tenant.id) (-1) tenants
  in
  let parts_rev, next_index, next_seq =
    List.fold_left
      (fun (parts, index, seq) t ->
        let lo = t.Qvisor.Tenant.rank_lo and hi = t.Qvisor.Tenant.rank_hi in
        let stride = Stdlib.max 1 ((hi - lo + 1) / max_sweep_labels) in
        let shots = ref [] in
        let label = ref lo in
        while !label <= hi do
          shots := (t.Qvisor.Tenant.id, !label) :: !shots;
          label := !label + stride
        done;
        let shots = List.rev !shots in
        ( { part_index = index; seq_offset = seq; shots } :: parts,
          index + 1,
          seq + List.length shots ))
      ([], 0, 0) tenants
  in
  (* One packet from a tenant the plan does not know: the fallback path. *)
  let fallback =
    { part_index = next_index; seq_offset = next_seq; shots = [ (max_id + 1, 0) ] }
  in
  List.rev (fallback :: parts_rev)

(* Runs on a worker domain with its part's private registry (its sink,
   under --trace, sampled with a seed derived from the partition index)
   and profiler, and a private pre-processor over the shared (immutable)
   plan.  The part's packet uids start after its [seq_offset], as in a
   serial run. *)
let run_dry_run_part ~plan (slot : Cliopts.Run.part) part =
  let prof = slot.Cliopts.Run.profiler and tel = slot.Cliopts.Run.registry in
  Engine.Span.with_ prof ~name:"plan.dry_run_part" @@ fun () ->
  let pre = Qvisor.Preprocessor.of_plan ~profiler:prof ~telemetry:tel plan in
  Sched.Packet.reset_uid_counter part.seq_offset;
  List.iteri
    (fun i (tenant, label) ->
      let p = Sched.Packet.make ~tenant ~rank:label ~flow:0 ~size:1500 () in
      Qvisor.Preprocessor.process pre p;
      if Engine.Telemetry.tracing tel then
        Engine.Telemetry.trace tel
          ~time:(float_of_int (part.seq_offset + i))
          ~kind:Engine.Recorder.Preprocess ~uid:p.Sched.Packet.uid ~link:(-1)
          ~tenant ~flow:(-1) ~rank_before:p.Sched.Packet.label
          ~rank:p.Sched.Packet.rank)
    part.shots

(* Fan the per-tenant label sweeps out over worker domains, one part of
   [instr] each; [Cliopts.Run.finish] merges them in partition order, so
   the snapshot and the trace are identical for any --jobs value. *)
let dry_run ~jobs instr ~plan tenants =
  let parts = dry_run_parts tenants in
  let seeds =
    List.map (fun p -> Engine.Rng.derive ~seed:0 p.part_index) parts
  in
  ignore
    (Engine.Parallel.map ~jobs
       (fun (slot, part) -> run_dry_run_part ~plan slot part)
       (List.combine (Cliopts.Run.parts instr ~seeds) parts))

let plan_cmd =
  let run tenant_specs policy_str queues levels json spec_file pipeline jobs
      (ins : Cliopts.instruments) =
    let tenants, policy = resolve_spec spec_file tenant_specs policy_str in
    let config = { Qvisor.Synthesizer.default_config with levels } in
    (* plan reports the snapshot itself (a text section or a JSON field),
       so it asks for the registry directly rather than through
       --telemetry's printing. *)
    let instr =
      Cliopts.exit_on_error
        (Cliopts.Run.create ~registry:ins.telemetry
           { ins with telemetry = false })
    in
    (* Dry-run (under --telemetry or --trace), then write the outputs. *)
    let finish plan =
      if Engine.Telemetry.is_enabled (Cliopts.Run.registry instr) then
        dry_run ~jobs instr ~plan tenants;
      Cliopts.Run.finish instr
    in
    match
      Qvisor.Synthesizer.synthesize ~profiler:(Cliopts.Run.profiler instr)
        ~config ~tenants ~policy ()
    with
    | Error e ->
      Format.eprintf "synthesis error: %s@." (Qvisor.Error.to_string e);
      exit 1
    | Ok plan when json ->
      let report = Qvisor.Analysis.check plan in
      let telemetry_fields =
        match finish plan with
        | None -> []
        | Some snap -> [ ("telemetry", snap) ]
      in
      let payload =
        Engine.Json.Obj
          ([
             ("spec", Qvisor.Serialize.spec_to_json ~tenants ~policy);
             ("plan", Qvisor.Serialize.plan_to_json plan);
             ("analysis", Qvisor.Serialize.report_to_json report);
           ]
          @ telemetry_fields)
      in
      print_endline (Engine.Json.to_string ~pretty:true payload);
      if not report.Qvisor.Analysis.feasible then exit 2
    | Ok plan ->
      Format.printf "%a@.@." Qvisor.Synthesizer.pp_plan plan;
      let report = Qvisor.Analysis.check plan in
      Format.printf "%a@.@." Qvisor.Analysis.pp_report report;
      (match Qvisor.Analysis.starvation_risk plan with
      | [] -> Format.printf "starvation risk: none@."
      | at_risk ->
        Format.printf "starvation risk (by design of >>): %s@."
          (String.concat ", "
             (List.map (fun t -> t.Qvisor.Tenant.name) at_risk)));
      (match queues with
      | None -> ()
      | Some n -> (
        match Qvisor.Deploy.queue_bounds_of_plan ~plan ~num_queues:n with
        | Error e ->
          Format.eprintf "queue mapping error: %s@." (Qvisor.Error.to_string e);
          exit 1
        | Ok bounds ->
          Format.printf "@.queue mapping (%d strict-priority queues):@." n;
          Array.iteri
            (fun i b ->
              let lo =
                if i = 0 then plan.Qvisor.Synthesizer.rank_lo
                else bounds.(i - 1) + 1
              in
              Format.printf "  queue %d: ranks [%d, %d]@." i lo b)
            bounds));
      (if pipeline then
         match Qvisor.Pipeline.compile plan with
         | Ok program ->
           Format.printf "@.%a@." Qvisor.Pipeline.pp_program program
         | Error e -> Format.printf "@.pipeline compilation failed: %s@." e);
      (match finish plan with
      | Some snap when ins.telemetry ->
        Format.printf "@.telemetry:@.%s@."
          (Engine.Json.to_string ~pretty:true snap)
      | _ -> ());
      if not report.Qvisor.Analysis.feasible then exit 2
  in
  let doc = "Synthesize a joint scheduling plan and analyze its guarantees." in
  Cmd.v (Cmd.info "plan" ~doc)
    Term.(
      const run $ tenants_arg $ policy_arg $ queues_arg $ levels_arg $ json_arg
      $ spec_file_arg $ pipeline_arg $ Cliopts.jobs $ instruments_arg)

let fit_cmd =
  let queues_required =
    let doc = "Strict-priority queues available on the target switch." in
    Arg.(required & opt (some int) None & info [ "queues"; "q" ] ~docv:"N" ~doc)
  in
  let run tenant_specs policy_str num_queues spec_file =
    let tenants, policy = resolve_spec spec_file tenant_specs policy_str in
    let resources = { Qvisor.Search.num_queues; queue_capacity_pkts = 64 } in
    match Qvisor.Search.fit ~tenants ~policy ~resources () with
    | Error e ->
      Format.eprintf "fit error: %s@." (Qvisor.Error.to_string e);
      exit 1
    | Ok proposal ->
      Format.printf "%a@." Qvisor.Search.pp_proposal proposal;
      if not proposal.Qvisor.Search.exact_fit then exit 3
  in
  let doc =
    "Fit a policy onto limited scheduler resources, proposing the closest \
     deployable relaxation (exit 3 when guarantees had to be weakened)."
  in
  Cmd.v (Cmd.info "fit" ~doc)
    Term.(const run $ tenants_arg $ policy_arg $ queues_required $ spec_file_arg)

let check_cmd =
  let run policy_str =
    let policy_str =
      match policy_str with
      | Some s -> s
      | None ->
        Format.eprintf "no policy: pass --policy@.";
        exit 1
    in
    match Qvisor.Policy.parse policy_str with
    | Ok p ->
      Format.printf "ok: %s@." (Qvisor.Policy.to_string p);
      Format.printf "tenants: %s@."
        (String.concat ", " (Qvisor.Policy.tenant_names p));
      Format.printf "strict tiers: %d@." (List.length (Qvisor.Policy.strict_tiers p))
    | Error e ->
      Format.eprintf "parse error: %s@." (Qvisor.Error.to_string e);
      exit 1
  in
  let doc =
    "Statically parse and echo an operator policy (syntax only). To verify \
     that deployed backends actually $(i,behave) according to a policy, use \
     the $(b,conformance) command, which replays generated workloads against \
     an ideal-PIFO oracle."
  in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run $ policy_arg)

(* ------------------------------------------------------------------ *)
(* conformance: seeded differential fuzzing against the ideal oracle  *)
(* ------------------------------------------------------------------ *)

let fault_conv =
  let parse s =
    match Conformance.Fault.of_string s with
    | Ok f -> Ok f
    | Error e -> Error (`Msg e)
  in
  let print ppf f = Format.pp_print_string ppf (Conformance.Fault.to_string f) in
  Arg.conv (parse, print)

let conformance_cmd =
  let seed_arg =
    let doc = "Root seed; case $(i,i) uses the derived seed for (SEED, i)." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let cases_arg =
    let doc = "Number of generated scenarios to verify." in
    Arg.(value & opt int 200 & info [ "cases"; "n" ] ~docv:"N" ~doc)
  in
  let replay_arg =
    let doc =
      "Replay a serialized reproducer (written by a failing run) through \
       every backend instead of fuzzing; prints per-backend verdicts and \
       per-edge policy violations."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let inject_arg =
    let doc =
      "Also verify a deliberately broken backend (one of: lifo-ties, \
       drop-newest) — an end-to-end check that the oracle catches bugs and \
       the shrinker minimizes them."
    in
    Arg.(
      value & opt (some fault_conv) None & info [ "inject" ] ~docv:"FAULT" ~doc)
  in
  let repro_arg =
    let doc = "Where to write the shrunk reproducer of the first failure." in
    Arg.(
      value
      & opt string "conformance-repro.json"
      & info [ "repro" ] ~docv:"FILE" ~doc)
  in
  let metrics_out_arg =
    Cliopts.metrics_out
      ~doc:
        "Write the fuzz run's telemetry (cases, events, divergences, \
         per-backend inversion counters) to $(docv) as Prometheus text \
         exposition — written even when the run fails, so a CI scrape sees \
         the divergence counters."
  in
  let backends_for inject =
    Conformance.Differential.standard_backends ()
    @
    match inject with
    | None -> []
    | Some fault -> [ Conformance.Differential.faulty_backend fault ]
  in
  let read_scenario path =
    let contents =
      try In_channel.with_open_text path In_channel.input_all
      with Sys_error e ->
        Format.eprintf "cannot read %s: %s@." path e;
        exit 1
    in
    match Engine.Json.of_string contents with
    | Error e ->
      Format.eprintf "json error in %s: %s@." path e;
      exit 1
    | Ok json -> (
      match Conformance.Scenario.of_json json with
      | Ok sc -> sc
      | Error e ->
        Format.eprintf "reproducer error in %s: %s@." path
          (Qvisor.Error.to_string e);
        exit 1)
  in
  let run_replay backends path =
    let sc = read_scenario path in
    Format.printf "replaying %s@.  %a@.@." path Conformance.Scenario.pp sc;
    match Conformance.Differential.run_scenario ~backends sc with
    | Error e ->
      Format.eprintf "replay error: %s@." (Qvisor.Error.to_string e);
      exit 1
    | Ok (oracle, replays) ->
      Format.printf "oracle: %d served, %d dropped, %d left queued@.@."
        (List.length oracle.Conformance.Oracle.served)
        (List.length oracle.Conformance.Oracle.dropped)
        (List.length oracle.Conformance.Oracle.remaining);
      let exact_failed = ref false in
      List.iter
        (fun ((spec, rep, verdict) :
               Conformance.Differential.backend_spec
               * Conformance.Differential.replay
               * Conformance.Differential.verdict) ->
          let open Conformance.Differential in
          Format.printf "%-14s %s@." spec.bname
            (if verdict.matches then "matches oracle"
             else
               Printf.sprintf "DIVERGES: %s"
                 (Option.value verdict.divergence ~default:"?"));
          if spec.expect_exact && not verdict.matches then exact_failed := true;
          if not verdict.matches then begin
            Format.printf
              "  inversions %d/%d dequeues (magnitude sum %d, max %d)@."
              rep.inversions rep.dequeues rep.magnitude_sum rep.magnitude_max;
            List.iter
              (fun ((hi, lo), count) ->
                if count > 0 then
                  Format.printf "  strict-edge violation  %s >> %s: %d@." hi lo
                    count)
              rep.violations
          end)
        replays;
      if !exact_failed then begin
        Format.eprintf
          "@.FAIL: an exact-guarantee backend diverged from the oracle@.";
        exit 1
      end
  in
  (* Replay the shrunk reproducer once more with a flight recorder armed
     and dump the packet-level story of the divergence next to it. *)
  let dump_flight backend small repro =
    let flight = Filename.remove_extension repro ^ ".flight.ndjson" in
    match Conformance.Scenario.plan small with
    | Error _ -> ()
    | Ok plan -> (
      match
        backend.Conformance.Differential.make ~plan
          ~capacity_pkts:small.Conformance.Scenario.capacity_pkts
      with
      | Error _ -> ()
      | Ok qdisc ->
        let recorder = Engine.Recorder.create () in
        ignore
          (Conformance.Differential.replay ~recorder ~plan ~qdisc small);
        (try
           Out_channel.with_open_text flight (fun oc ->
               Engine.Recorder.dump recorder oc);
           Format.printf
             "  flight recorder: %s (inspect with: qvisor-cli trace query \
              --file %s)@."
             flight flight
         with Sys_error e ->
           Format.eprintf "cannot write flight dump: %s@." e))
  in
  let run_fuzz backends seed cases jobs repro profile metrics_out =
    let instr =
      Cliopts.exit_on_error
        (Cliopts.Run.create { Cliopts.no_instruments with profile; metrics_out })
    in
    let res =
      Conformance.Differential.run_cases ~jobs
        ~profiler:(Cliopts.Run.profiler instr)
        ~telemetry:(Cliopts.Run.registry instr) ~backends ~seed ~cases ()
    in
    (* Before any failure exit: CI scrapes the divergence counters. *)
    ignore (Cliopts.Run.finish instr);
    Format.printf "%a@." Conformance.Differential.pp_run res;
    List.iter
      (fun (i, e) -> Format.eprintf "case %d: synthesis error: %s@." i e)
      res.Conformance.Differential.errors;
    match res.Conformance.Differential.failures with
    | [] ->
      if res.Conformance.Differential.errors <> [] then exit 1;
      Format.printf
        "all %d cases conform: exact backends match the oracle verbatim@."
        cases
    | f :: _ as failures ->
      let open Conformance.Differential in
      Format.printf "@.%d oracle divergence(s) on exact backends; first:@."
        (List.length failures);
      Format.printf "  case %d (seed %d) backend %s@.  %s@." f.case_index
        f.case_seed f.backend f.divergence;
      (* Shrink the first failing case to a committed-size reproducer. *)
      let backend =
        List.find (fun b -> b.bname = f.backend) backends
      in
      let sc = Conformance.Scenario.generate ~seed:f.case_seed in
      let fails = fails_oracle ~backend in
      let small = Conformance.Shrink.minimize ~fails sc in
      let json = Conformance.Scenario.to_json small in
      (try
         Out_channel.with_open_text repro (fun oc ->
             output_string oc (Engine.Json.to_string ~pretty:true json);
             output_char oc '\n')
       with Sys_error e ->
         Format.eprintf "cannot write reproducer: %s@." e);
      Format.printf
        "  shrunk %d events -> %d events (capacity %d); reproducer: %s@."
        (Conformance.Scenario.num_events sc)
        (Conformance.Scenario.num_events small)
        small.Conformance.Scenario.capacity_pkts repro;
      dump_flight backend small repro;
      Format.printf "  replay with: qvisor-cli conformance --replay %s@." repro;
      exit 1
  in
  let run seed cases jobs replay inject repro profile metrics_out =
    if cases <= 0 then begin
      Format.eprintf "--cases must be positive@.";
      exit 1
    end;
    let backends = backends_for inject in
    match replay with
    | Some path -> run_replay backends path
    | None -> run_fuzz backends seed cases jobs repro profile metrics_out
  in
  let doc =
    "Differentially verify scheduler backends against an ideal-PIFO oracle \
     on seeded random scenarios. Unlike $(b,check) (static policy parsing), \
     this is dynamic verification: every case replays a generated \
     multi-tenant workload through the synthesized pre-processor and each \
     deployed backend, requires exact-guarantee backends to match the \
     oracle's dequeue order and drop decisions verbatim, and quantifies \
     approximate backends by inversion rate and per->>-edge policy \
     violations. Failing cases are shrunk to a small JSON reproducer."
  in
  Cmd.v (Cmd.info "conformance" ~doc)
    Term.(
      const run $ seed_arg $ cases_arg $ Cliopts.jobs $ replay_arg $ inject_arg
      $ repro_arg $ Cliopts.profile $ metrics_out_arg)

(* ------------------------------------------------------------------ *)
(* metrics: Prometheus text exposition of a control-plane dry run     *)
(* ------------------------------------------------------------------ *)

let metrics_cmd =
  let validate_arg =
    let doc =
      "Parse $(docv) with the strict exposition reader (every sample must \
       belong to a declared $(b,# TYPE) family) and report family/sample \
       counts instead of running anything.  Exits 1 with the offending \
       line number on the first malformed line."
    in
    Arg.(value & opt (some string) None & info [ "validate" ] ~docv:"FILE" ~doc)
  in
  let out_arg =
    let doc = "Write the exposition text to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let run_validate path =
    let contents =
      try In_channel.with_open_text path In_channel.input_all
      with Sys_error e ->
        Format.eprintf "cannot read %s: %s@." path e;
        exit 1
    in
    match Engine.Exposition.parse contents with
    | Error e ->
      Format.eprintf "%s: %s@." path e;
      exit 1
    | Ok lines ->
      let count p = List.length (List.filter p lines) in
      Format.printf "%s: ok (%d families, %d samples)@." path
        (count (function Engine.Exposition.Type _ -> true | _ -> false))
        (count (function Engine.Exposition.Sample _ -> true | _ -> false))
  in
  let run tenant_specs policy_str levels spec_file jobs validate out =
    match validate with
    | Some path -> run_validate path
    | None -> (
      let tenants, policy = resolve_spec spec_file tenant_specs policy_str in
      let config = { Qvisor.Synthesizer.default_config with levels } in
      match Qvisor.Synthesizer.synthesize ~config ~tenants ~policy () with
      | Error e ->
        Format.eprintf "synthesis error: %s@." (Qvisor.Error.to_string e);
        exit 1
      | Ok plan ->
        (* Same partitioned dry run as `plan --telemetry`, rendered as
           exposition text instead of a JSON snapshot. *)
        let tenant_names =
          List.map (fun t -> (t.Qvisor.Tenant.id, t.Qvisor.Tenant.name)) tenants
        in
        let instr =
          Cliopts.exit_on_error
            (Cliopts.Run.create ~registry:true ~tenant_names
               { Cliopts.no_instruments with metrics_out = out })
        in
        dry_run ~jobs instr ~plan tenants;
        ignore (Cliopts.Run.finish instr);
        if out = None then
          print_string
            (Engine.Exposition.render ~tenant_names (Cliopts.Run.registry instr)))
  in
  let doc =
    "Render a pre-processor dry run as Prometheus text exposition (or, with \
     $(b,--validate), strictly parse an existing exposition file such as an \
     experiment runner's --metrics-out output)."
  in
  Cmd.v (Cmd.info "metrics" ~doc)
    Term.(
      const run $ tenants_arg $ policy_arg $ levels_arg $ spec_file_arg
      $ Cliopts.jobs $ validate_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* bench: statistically-gated comparison of benchmark reports         *)
(* ------------------------------------------------------------------ *)

let bench_cmd =
  let old_arg =
    let doc = "Baseline benchmark report (a committed BENCH_engine.json)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD" ~doc)
  in
  let new_arg =
    let doc = "Candidate benchmark report to compare against $(i,OLD)." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW" ~doc)
  in
  let threshold_arg =
    let doc =
      "Relative regression threshold: a metric regresses when its median \
       worsens by at least this fraction (the boundary counts) $(i,and) the \
       change exceeds the noise band."
    in
    Arg.(
      value & opt Cliopts.pos_float 0.15 & info [ "threshold" ] ~docv:"FRAC" ~doc)
  in
  let noise_k_arg =
    let doc =
      "Noise-band width: a change only gates when its magnitude exceeds \
       $(docv) times the sum of the two trials' median absolute deviations."
    in
    Arg.(value & opt Cliopts.pos_float 3.0 & info [ "noise-k" ] ~docv:"K" ~doc)
  in
  let json_out_arg =
    let doc =
      "Also write the machine-readable verdict (schema qvisor-bench-diff/1) \
       to $(docv); written atomically and even when the diff fails, so CI \
       can upload it from a failing step."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let diff_cmd =
    let run old_file new_file threshold noise_k json_out =
      let read path =
        match Engine.Perf.Bench.read_report path with
        | Ok entries -> entries
        | Error e ->
          Format.eprintf "%s@." e;
          exit 2
      in
      let baseline = read old_file in
      let current = read new_file in
      let report =
        Engine.Perf.Diff.compare ~threshold ~noise_k ~baseline ~current ()
      in
      Format.printf "%a@." Engine.Perf.Diff.pp_report report;
      (match json_out with
      | None -> ()
      | Some path ->
        (try
           Engine.Perf.write_atomic path (fun oc ->
               output_string oc
                 (Engine.Json.to_string ~pretty:true
                    (Engine.Perf.Diff.report_to_json report));
               output_char oc '\n')
         with Sys_error e ->
           Format.eprintf "cannot write verdict: %s@." e;
           exit 2);
        Format.eprintf "wrote %s@." path);
      let n = Engine.Perf.Diff.regressions report in
      if n > 0 then begin
        Format.eprintf "FAIL: %d metric(s) regressed by >= %g%% beyond noise@."
          n (100. *. threshold);
        exit 1
      end
    in
    let doc =
      "Compare two benchmark reports and fail on statistically significant \
       regressions.  Each metric (ns/op and alloc B/op per benchmark) is \
       judged by its median: a regression needs both a relative change of at \
       least --threshold and a magnitude outside the MAD-derived noise band, \
       so trial jitter alone cannot fail a build.  Exits 1 when any metric \
       regresses, 2 when a report cannot be read."
    in
    Cmd.v (Cmd.info "diff" ~doc)
      Term.(
        const run $ old_arg $ new_arg $ threshold_arg $ noise_k_arg
        $ json_out_arg)
  in
  let doc =
    "Benchmark-report tooling (reports are produced by `qvisor-bench -- \
     engine`)."
  in
  Cmd.group (Cmd.info "bench" ~doc) [ diff_cmd ]

(* ------------------------------------------------------------------ *)
(* trace: packet-lineage forensics over NDJSON event files            *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let file_arg =
    let doc =
      "NDJSON event file: a --trace output of $(b,plan)/the experiment \
       runner, or a flight-recorder dump ($(i,*.flight.ndjson))."
    in
    Arg.(
      required & opt (some string) None & info [ "file"; "f" ] ~docv:"FILE" ~doc)
  in
  let uid_arg =
    let doc = "Select one packet by uid (the scenario sid in conformance dumps)." in
    Arg.(value & opt (some int) None & info [ "uid" ] ~docv:"UID" ~doc)
  in
  let flow_arg =
    let doc = "Select all packets of a flow." in
    Arg.(value & opt (some int) None & info [ "flow" ] ~docv:"FLOW" ~doc)
  in
  let tenant_arg =
    let doc = "Select all packets of a tenant." in
    Arg.(value & opt (some int) None & info [ "tenant" ] ~docv:"TENANT" ~doc)
  in
  let query_cmd =
    let run file uid flow tenant =
      match Engine.Lineage.load_file file with
      | Error e ->
        Format.eprintf "%s: %s@." file e;
        exit 1
      | Ok events -> (
        match Engine.Lineage.lineage ?uid ?flow ?tenant events with
        | [] ->
          Format.printf "no events match (%d in file)@." (List.length events)
        | selected -> Format.printf "%a@." Engine.Lineage.pp_lineage selected)
    in
    let doc =
      "Join an NDJSON trace or flight-recorder dump by packet uid, flow, or \
       tenant and print each matching packet's stage-by-stage rank journey \
       (preprocess, enqueue, dequeue, drop, evict)."
    in
    Cmd.v (Cmd.info "query" ~doc)
      Term.(const run $ file_arg $ uid_arg $ flow_arg $ tenant_arg)
  in
  let doc =
    "Packet-lineage forensics over the NDJSON events written by telemetry \
     trace sinks and flight-recorder dumps."
  in
  Cmd.group (Cmd.info "trace" ~doc) [ query_cmd ]

(* ------------------------------------------------------------------ *)
(* serve: the long-running scheduling-hypervisor daemon               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let socket_arg =
    let doc = "Unix-domain control socket path (unlinked and re-bound)." in
    Arg.(value & opt string "qvisor.sock" & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let http_arg =
    let doc =
      "TCP port for $(b,GET /metrics) and $(b,/healthz) on 127.0.0.1 \
       ($(b,0) picks an ephemeral port, printed on startup)."
    in
    Arg.(value & opt int 0 & info [ "http" ] ~docv:"PORT" ~doc)
  in
  let seed_arg =
    let doc = "Root seed for the daemon's per-tenant traffic generators." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let load_arg =
    let doc = "Per-tenant offered load on the access capacity." in
    Arg.(value & opt Cliopts.pos_float 0.3 & info [ "load" ] ~docv:"LOAD" ~doc)
  in
  let slice_arg =
    let doc =
      "Simulated time between health/SLO ticks and snapshots (e.g. 10ms, \
       1s).  Requests are answered between chunks of events, not at slice \
       ends."
    in
    Arg.(
      value & opt Cliopts.duration 0.01 & info [ "slice" ] ~docv:"DURATION" ~doc)
  in
  let cooldown_arg =
    let doc =
      "Base cooldown between remediation attempts for one tenant; each \
       further attempt backs off exponentially (e.g. 500ms, 5s, 1m)."
    in
    Arg.(
      value
      & opt Cliopts.duration
          Daemon.Remediation.default_config.Daemon.Remediation.cooldown
      & info [ "remediation-cooldown" ] ~docv:"DURATION" ~doc)
  in
  let drain_arg =
    let doc =
      "Simulated time granted to in-flight flows at shutdown (e.g. 500ms)."
    in
    Arg.(
      value
      & opt Cliopts.duration 0.5
      & info [ "drain-timeout" ] ~docv:"DURATION" ~doc)
  in
  let alerts_arg =
    let doc =
      "Write the health machine's NDJSON alert stream (one line per \
       per-tenant state transition) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "alerts" ] ~docv:"FILE" ~doc)
  in
  let audit_arg =
    let doc =
      "Write the remediation audit log (one NDJSON line per guarded \
       resynthesis attempt) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "audit" ] ~docv:"FILE" ~doc)
  in
  let inject_serve_arg =
    let doc =
      "Replace every port's queue discipline with a deliberately broken one \
       (lifo-ties | drop-newest) — the fault that drives the SLO auditor to \
       Violating and exercises auto-remediation end to end."
    in
    Arg.(
      value & opt (some fault_conv) None & info [ "inject" ] ~docv:"FAULT" ~doc)
  in
  let pace_arg =
    let doc =
      "Pace the slice loop to the wall clock (one simulated second per real \
       second) instead of free-running; waiting happens inside the socket \
       poll, so the control plane stays live."
    in
    Arg.(value & flag & info [ "pace" ] ~doc)
  in
  let snapshot_arg =
    let doc =
      "Simulated time between retention-store snapshots of the live registry \
       (e.g. 1s, 500ms) — the resolution floor of $(b,GET /query)."
    in
    Arg.(
      value
      & opt Cliopts.duration 1.0
      & info [ "snapshot-interval" ] ~docv:"DURATION" ~doc)
  in
  let run tenant_specs policy_str levels spec_file socket_path http_port seed
      load slice cooldown drain_timeout alerts audit inject pace
      snapshot_interval =
    let default = Daemon.Server.default_config in
    let tenants, policy =
      (* Unlike the one-shot commands, serving something is more useful
         than erroring out: with no spec at all, serve the paper's two
         default tenants. *)
      if spec_file = None && tenant_specs = [] && policy_str = None then
        (default.Daemon.Server.tenants, default.Daemon.Server.policy)
      else resolve_spec spec_file tenant_specs policy_str
    in
    let open_sink =
      Option.map (fun path ->
          try open_out path
          with Sys_error e ->
            Format.eprintf "cannot write %s: %s@." path e;
            exit 1)
    in
    let alerts_oc = open_sink alerts in
    let audit_oc = open_sink audit in
    let config =
      {
        default with
        Daemon.Server.socket_path;
        http_port;
        tenants;
        policy;
        levels;
        seed;
        load;
        slice;
        drain_timeout;
        remediation =
          {
            Daemon.Remediation.default_config with
            Daemon.Remediation.cooldown;
          };
        alerts = alerts_oc;
        audit = audit_oc;
        inject_qdisc = Option.map Conformance.Fault.qdisc inject;
        pace;
        snapshot_interval;
      }
    in
    match Daemon.Server.create config with
    | Error e ->
      Format.eprintf "cannot start daemon: %s@." (Qvisor.Error.to_string e);
      exit 1
    | Ok server ->
      (* SIGINT/SIGTERM stop the loop; serve's own epilogue then drains
         in-flight flows, flushes the sinks, and unlinks the socket. *)
      Cliopts.on_signal (fun _ -> Daemon.Server.stop server);
      Format.printf "control socket: %s@." socket_path;
      Format.printf "metrics: http://127.0.0.1:%d/metrics@."
        (Daemon.Server.http_port server);
      Format.print_flush ();
      Daemon.Server.serve server;
      List.iter
        (fun (oc, path) ->
          match (oc, path) with
          | Some oc, Some path ->
            close_out oc;
            Format.eprintf "wrote %s@." path
          | _ -> ())
        [ (alerts_oc, alerts); (audit_oc, audit) ]
  in
  let doc =
    "Run the scheduling hypervisor as a persistent daemon: continuous \
     multi-tenant traffic through the synthesized plan, a line-oriented \
     JSON control socket (tenant-add | tenant-remove | policy-update | \
     status | drain | shutdown), a live Prometheus scrape surface, and \
     SLO-driven auto-remediation (observed-range refresh, then \
     quantization coarsening) for violating tenants."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ tenants_arg $ policy_arg $ levels_arg $ spec_file_arg
      $ socket_arg $ http_arg $ seed_arg $ load_arg $ slice_arg $ cooldown_arg
      $ drain_arg $ alerts_arg $ audit_arg $ inject_serve_arg $ pace_arg
      $ snapshot_arg)

(* ------------------------------------------------------------------ *)
(* top / report: live dashboard and incident post-mortem over /query  *)
(* ------------------------------------------------------------------ *)

let dash_http_arg =
  let doc = "HTTP port of the running $(b,qvisor-cli serve) daemon." in
  Arg.(value & opt int 9109 & info [ "http" ] ~docv:"PORT" ~doc)

let dash_host_arg =
  let doc = "Daemon host." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let dash_window_arg =
  let doc = "History window to query (e.g. 60s, 5m)." in
  Arg.(
    value & opt Cliopts.duration 60. & info [ "window" ] ~docv:"DURATION" ~doc)

let dash_series_arg =
  let doc =
    "Series selection pattern ($(b,*) is a wildcard), e.g. \
     $(b,net.tenant.*)."
  in
  Arg.(value & opt string "*" & info [ "series" ] ~docv:"PATTERN" ~doc)

let dash_query ~window ~series ~step =
  let encode s =
    String.concat ""
      (List.map
         (fun c ->
           match c with
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '-' | '_' | '*' ->
             String.make 1 c
           | c -> Printf.sprintf "%%%02X" (Char.code c))
         (List.init (String.length s) (String.get s)))
  in
  Printf.sprintf "start=-%g&series=%s%s" window (encode series)
    (match step with None -> "" | Some s -> Printf.sprintf "&step=%g" s)

let top_cmd =
  let once_arg =
    let doc = "Render a single frame and exit (no ANSI screen clearing)." in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let interval_arg =
    let doc = "Wall-clock refresh interval in live mode (e.g. 2s)." in
    Arg.(
      value & opt Cliopts.duration 2. & info [ "interval" ] ~docv:"DURATION" ~doc)
  in
  let color_arg =
    let doc = "Force ANSI colors on ($(b,always)) or off ($(b,never))." in
    Arg.(
      value
      & opt (enum [ ("auto", `Auto); ("always", `Always); ("never", `Never) ])
          `Auto
      & info [ "color" ] ~docv:"WHEN" ~doc)
  in
  let run host port window series once interval color =
    let color =
      match color with
      | `Always -> true
      | `Never -> false
      | `Auto -> (not once) && Unix.isatty Unix.stdout
    in
    let query = dash_query ~window ~series ~step:None in
    let frame () =
      match Daemon.Dash.fetch ~host ~port ~query () with
      | Error e ->
        Format.eprintf "top: %s@." e;
        exit 1
      | Ok data -> Daemon.Dash.render_top ~color data
    in
    if once then print_string (frame ())
    else begin
      let running = ref true in
      Cliopts.on_signal (fun _ -> running := false);
      while !running do
        let body = frame () in
        (* Clear + home, draw the frame atomically to cut flicker. *)
        print_string ("\027[2J\027[H" ^ body);
        flush stdout;
        Unix.sleepf interval
      done;
      print_newline ()
    end
  in
  let doc =
    "Live terminal dashboard over a running daemon's $(b,GET /query) range \
     API: per-tenant throughput / drop / delay-p99 / burn-rate sparklines \
     with health badges and recent incident annotations."
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(
      const run $ dash_host_arg $ dash_http_arg $ dash_window_arg
      $ dash_series_arg $ once_arg $ interval_arg $ color_arg)

let report_cmd =
  let top_n_arg =
    let doc = "Ranked movers to keep per incident." in
    Arg.(value & opt Cliopts.pos_int 10 & info [ "top" ] ~docv:"N" ~doc)
  in
  let report_window_arg =
    let doc = "History window to post-mortem (e.g. 10m; default: all 4h)." in
    Arg.(
      value
      & opt Cliopts.duration 14400.
      & info [ "window" ] ~docv:"DURATION" ~doc)
  in
  let run host port window series top_n =
    let query = dash_query ~window ~series ~step:None in
    match Daemon.Dash.fetch ~host ~port ~query () with
    | Error e ->
      Format.eprintf "report: %s@." e;
      exit 1
    | Ok data -> print_string (Daemon.Dash.render_report ~top_n data)
  in
  let doc =
    "Incident post-mortem from a running daemon's retention store: for each \
     annotation (health transition, remediation attempt, drop spike) in the \
     window, the before/after deltas of every series that moved, ranked by \
     relative change."
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      const run $ dash_host_arg $ dash_http_arg $ report_window_arg
      $ dash_series_arg $ top_n_arg)

let () =
  let doc = "QVISOR control-plane tools" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "qvisor-cli" ~doc)
          [
            plan_cmd;
            fit_cmd;
            check_cmd;
            conformance_cmd;
            metrics_cmd;
            bench_cmd;
            trace_cmd;
            serve_cmd;
            top_cmd;
            report_cmd;
          ]))
