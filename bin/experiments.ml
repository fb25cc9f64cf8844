(* Experiment driver: regenerates every figure of the paper plus the
   ablations documented in DESIGN.md.  See EXPERIMENTS.md for recorded
   outputs. *)

open Cmdliner

(* A typed converter instead of a failwith: bad values produce a one-line
   Cmdliner error plus usage, not a backtrace. *)
let scale_arg =
  let scale_conv =
    Arg.enum
      [
        ("quick", Experiments.Fig4.quick);
        ("default", Experiments.Fig4.default);
        ("paper", Experiments.Fig4.paper_scale);
      ]
  in
  let doc = "Fabric scale: quick (8 hosts), default (24 hosts), paper (144 hosts)." in
  Arg.(
    value
    & opt scale_conv Experiments.Fig4.default
    & info [ "scale" ] ~docv:"SCALE" ~doc)

let seed_arg =
  let doc = "Deterministic seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

(* [Arg.list float] validates each element, so "0.2,oops" is a clean
   argument error instead of an uncaught [float_of_string] failure. *)
let loads_arg =
  let doc = "Comma-separated loads (default: the paper's 0.2..0.8)." in
  Arg.(
    value
    & opt (some (list float)) None
    & info [ "loads" ] ~docv:"LOADS" ~doc)

let parse_loads = function
  | None -> Experiments.Fig4.paper_loads
  | Some loads -> loads

(* Progress lines can now be emitted from worker domains; serialize them. *)
let progress_mutex = Mutex.create ()

let progress fmt =
  Mutex.lock progress_mutex;
  Format.kfprintf
    (fun ppf ->
      Format.pp_print_flush ppf ();
      Mutex.unlock progress_mutex)
    Format.err_formatter fmt

let or_die = function
  | Ok v -> v
  | Error e ->
    Format.eprintf "error: %s@." (Qvisor.Error.to_string e);
    exit 1

let config_arg =
  let doc = "Load experiment parameters from a key=value config file (see Experiments.Config); --scale is ignored when given." in
  Arg.(value & opt (some string) None & info [ "config" ] ~docv:"FILE" ~doc)

let resolve_params scale config seed =
  match config with
  | None -> { scale with Experiments.Fig4.seed }
  | Some path -> (
    match Experiments.Config.load path with
    | Ok params -> { params with Experiments.Fig4.seed }
    | Error e ->
      Format.eprintf "config error: %s@." e;
      exit 1)

let csv_arg =
  let doc = "Also write the raw series to this CSV file." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

(* --------------------------------------------------------------- *)
(* Instrument flags (shared by fig4 / single / churn)              *)
(* --------------------------------------------------------------- *)

let instruments_arg =
  Cliopts.instruments
    ~telemetry_doc:
      "Enable the metric registry (per-tenant/per-port counters, \
       queue-depth and sojourn histograms, pre-processor hit counts) and \
       print its JSON snapshot on stdout after the results."
    ~trace_doc:
      "Write a sampled NDJSON packet-event trace (preprocess/enqueue/ \
       dequeue/drop/evict) to $(docv)."
    ~metrics_out_doc:
      "Write the metric registry (plus the SLO burn-rate and health gauges \
       when --slo is on) to $(docv) in Prometheus text exposition format; \
       implies a registry even without --telemetry.  Validate or inspect \
       the file with `qvisor-cli metrics --validate'."
    ()

(* The Fig. 4 harness always runs tenant 0 = pfabric, tenant 1 = edf;
   the map turns [net.tenant.0.*] into [{tenant="pfabric"}] labels. *)
let fig4_tenant_names = [ (0, "pfabric"); (1, "edf") ]

let start_run ?seed ins =
  Cliopts.exit_on_error
    (Cliopts.Run.create ~tenant_names:fig4_tenant_names ?seed ins)

let flight_arg =
  let doc =
    "Arm the always-on per-port flight recorders and write an NDJSON dump \
     of the recent packet events of any port whose drop rate spikes \
     (trigger: >= 50% drops over a 128-enqueue window, with cooldown) into \
     $(docv) (created if missing).  Inspect dumps with `qvisor-cli trace \
     query'."
  in
  Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"DIR" ~doc)

(* Returns the (flight config, on_anomaly hook) pair for Fig4.run plus a
   [finish] closure that reports how many dumps were written. *)
let setup_flight dir =
  match dir with
  | None -> (None, None, fun () -> ())
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let fired = ref 0 in
    let dumped = Hashtbl.create 8 in
    (* One dump per link: a sustained incident keeps re-firing its port's
       trigger every cooldown window, and the first ring snapshot is the
       one that shows the onset — later ones only repeat the steady
       state.  Subsequent fires are counted, not written. *)
    let on_anomaly ~link_id recorder =
      incr fired;
      if not (Hashtbl.mem dumped link_id) then begin
        Hashtbl.add dumped link_id ();
        let path =
          Filename.concat dir (Printf.sprintf "anomaly-link%d.ndjson" link_id)
        in
        Out_channel.with_open_text path (fun oc ->
            Engine.Recorder.dump recorder oc);
        progress "flight recorder: drop-rate anomaly on link %d -> %s@."
          link_id path
      end
    in
    ( Some Netsim.Net.default_flight,
      Some on_anomaly,
      fun () ->
        if !fired = 0 then
          progress "flight recorder: no drop-rate anomalies fired@."
        else
          progress
            "flight recorder: %d anomalies across %d link(s), dumps in %s@."
            !fired (Hashtbl.length dumped) dir )

let fig4_cmd =
  let run scale seed loads csv config jobs ins =
    let params = resolve_params scale config seed in
    let loads = parse_loads loads in
    let grid =
      Experiments.Fig4.jobs_of_grid params ~loads
        ~schemes:Experiments.Fig4.paper_schemes
    in
    (* Refuse a bad parameter before the trace is opened or any job
       starts (jobs differ from [params] only in their load). *)
    List.iter
      (fun load ->
        or_die (Experiments.Fig4.validate { params with Experiments.Fig4.load }))
      loads;
    (* One part per job (its index is its position in [grid]), sampled
       with the job's own seed and merged in job order. *)
    let instr = start_run ins in
    let parts =
      Array.of_list
        (Cliopts.Run.parts instr
           ~seeds:(List.map (fun j -> j.Experiments.Fig4.job_seed) grid))
    in
    let part (j : Experiments.Fig4.job) = parts.(j.Experiments.Fig4.index) in
    let on_start (job : Experiments.Fig4.job) =
      progress "running load %.2f %s...@." job.Experiments.Fig4.job_load
        (Experiments.Fig4.scheme_name job.Experiments.Fig4.job_scheme)
    in
    let results =
      or_die
        (Experiments.Fig4.run_jobs ~jobs
           ~telemetry_for:(fun j -> (part j).Cliopts.Run.registry)
           ~profiler_for:(fun j -> (part j).Cliopts.Run.profiler)
           ~on_start params grid)
    in
    Format.printf "%a@." Experiments.Fig4.print_fig4 results;
    (match csv with
    | None -> ()
    | Some path ->
      Experiments.Export.save_fig4 path results;
      progress "wrote %s@." path);
    ignore (Cliopts.Run.finish instr)
  in
  let doc = "Regenerate Fig. 4 (both panels): pFabric FCT vs load, six schemes." in
  Cmd.v (Cmd.info "fig4" ~doc)
    Term.(
      const run $ scale_arg $ seed_arg $ loads_arg $ csv_arg $ config_arg
      $ Cliopts.jobs $ instruments_arg)

let ablation_quant_cmd =
  let run scale seed jobs =
    let params = { scale with Experiments.Fig4.seed } in
    let results =
      Engine.Parallel.map ~jobs
        (fun levels ->
          progress "running quantization levels %d...@." levels;
          ( levels,
            Experiments.Fig4.run
              { params with Experiments.Fig4.levels = Some levels }
              (Experiments.Fig4.Qvisor_policy "pfabric + edf") ))
        [ 4; 8; 16; 32; 64; 128; 256 ]
      |> List.map (fun (levels, r) -> (levels, or_die r))
    in
    Format.printf
      "@[<v>Ablation A1 — normalization quantization (QVISOR pfabric + edf, \
       load %.2f)@,%-8s | %14s | %14s | %10s@,"
      params.Experiments.Fig4.load "levels" "small FCT (ms)" "large FCT (ms)"
      "cbr-ok";
    List.iter
      (fun (levels, r) ->
        Format.printf "%-8d | %14.3f | %14.3f | %10.3f@," levels
          r.Experiments.Fig4.small_mean_ms r.Experiments.Fig4.large_mean_ms
          r.Experiments.Fig4.cbr_deadline_fraction)
      results;
    Format.printf "@]@."
  in
  let doc = "Ablation A1: FCT sensitivity to rank-normalization quantization." in
  Cmd.v (Cmd.info "ablation-quant" ~doc)
    Term.(const run $ scale_arg $ seed_arg $ Cliopts.jobs)

let ablation_backend_cmd =
  let run scale seed jobs =
    let params = { scale with Experiments.Fig4.seed } in
    let cap = params.Experiments.Fig4.queue_capacity_pkts in
    let backends =
      [
        ("ideal PIFO", None);
        ( "SP bank, 2 queues",
          Some (Qvisor.Deploy.Sp_bank { num_queues = 2; queue_capacity_pkts = cap }) );
        ( "SP bank, 4 queues",
          Some (Qvisor.Deploy.Sp_bank { num_queues = 4; queue_capacity_pkts = cap }) );
        ( "SP bank, 8 queues",
          Some (Qvisor.Deploy.Sp_bank { num_queues = 8; queue_capacity_pkts = cap }) );
        ( "SP bank, 32 queues",
          Some (Qvisor.Deploy.Sp_bank { num_queues = 32; queue_capacity_pkts = cap }) );
        ( "SP-PIFO, 8 queues",
          Some (Qvisor.Deploy.Sp_pifo { num_queues = 8; queue_capacity_pkts = cap }) );
        ( "AIFO",
          Some (Qvisor.Deploy.Aifo { capacity_pkts = cap; window = 8 * cap; k = 0.1 }) );
        ( "DRR bank, 8 queues",
          Some
            (Qvisor.Deploy.Drr_bank
               { num_queues = 8; queue_capacity_pkts = cap; quantum_bytes = 1518 }) );
        ( "calendar, 32 buckets",
          Some
            (Qvisor.Deploy.Calendar
               { num_buckets = 32; bucket_width = 2048; capacity_pkts = cap }) );
      ]
    in
    Format.printf
      "@[<v>Ablation A2 — deployment backend fidelity (QVISOR pfabric >> edf, \
       load %.2f)@,%-20s | %14s | %14s | %8s@,"
      params.Experiments.Fig4.load "backend" "small FCT (ms)" "large FCT (ms)"
      "drops";
    let cases =
      List.map
        (fun (name, backend) ->
          (name, { params with Experiments.Fig4.backend }))
        backends
      @ [ ("PIFO tree (direct)",
           { params with Experiments.Fig4.tree_backend = true }) ]
    in
    let results =
      Engine.Parallel.map ~jobs
        (fun (name, case_params) ->
          progress "running backend %s...@." name;
          ( name,
            Experiments.Fig4.run case_params
              (Experiments.Fig4.Qvisor_policy "pfabric >> edf") ))
        cases
      |> List.map (fun (name, r) -> (name, or_die r))
    in
    List.iter
      (fun (name, r) ->
        Format.printf "%-20s | %14.3f | %14.3f | %8d@," name
          r.Experiments.Fig4.small_mean_ms r.Experiments.Fig4.large_mean_ms
          r.Experiments.Fig4.drops)
      results;
    Format.printf "@]@."
  in
  let doc =
    "Ablation A2: ideal PIFO vs commodity schedulers under QVISOR. For \
     oracle-exact verification of the same backends on adversarial \
     workloads (rather than end-to-end FCT), see `qvisor-cli conformance'."
  in
  Cmd.v (Cmd.info "ablation-backend" ~doc)
    Term.(const run $ scale_arg $ seed_arg $ Cliopts.jobs)

let churn_cmd =
  let run seed jobs ins =
    let params = { Experiments.Churn.default with Experiments.Churn.seed } in
    let instr = start_run ~seed ins in
    (* Telemetry instruments only the qvisor run (as before), straight
       into the root registry, which exactly one worker touches.  One
       private profiler per scheme, merged naive-then-qvisor. *)
    let telemetry_for ~qvisor =
      if qvisor then Cliopts.Run.registry instr else Engine.Telemetry.disabled
    in
    let profilers = Cliopts.Run.profilers instr 2 in
    let profiler_for ~qvisor = List.nth profilers (Bool.to_int qvisor) in
    progress "running churn (naive + qvisor)...@.";
    match
      Experiments.Churn.compare_schemes ~jobs ~telemetry_for ~profiler_for
        params
    with
    | [ naive; qvisor ] ->
      Format.printf "%a@.@.%a@." Experiments.Churn.print [ naive; qvisor ]
        Experiments.Churn.print_activity qvisor;
      ignore (Cliopts.Run.finish instr)
    | _ -> assert false
  in
  let doc = "Ablation A3: tenant churn (the paper's Fig. 2 timeline)." in
  Cmd.v (Cmd.info "churn" ~doc)
    Term.(const run $ seed_arg $ Cliopts.jobs $ instruments_arg)

let single_cmd =
  let scheme_arg =
    let doc =
      "Scheme: fifo | pifo-naive | pifo-ideal | a QVISOR policy string such \
       as 'pfabric >> edf'."
    in
    Arg.(value & opt string "pfabric >> edf" & info [ "scheme" ] ~docv:"SCHEME" ~doc)
  in
  let load_arg =
    let doc = "pFabric tenant load." in
    Arg.(value & opt float 0.5 & info [ "load" ] ~docv:"LOAD" ~doc)
  in
  let slo_arg =
    let doc =
      "Derive per-tenant SLOs from the synthesized plan (worst-case delay \
       bound, drop budget, rank-error budget), audit them online against \
       the run, print the per-tenant verdict table, and exit 4 when any \
       tenant ends the run Violating.  QVISOR pre-processor schemes only."
    in
    Arg.(value & flag & info [ "slo" ] ~doc)
  in
  let inject_arg =
    let fault_conv =
      let parse s =
        match Conformance.Fault.of_string s with
        | Ok f -> Ok f
        | Error e -> Error (`Msg e)
      in
      let print ppf f =
        Format.pp_print_string ppf (Conformance.Fault.to_string f)
      in
      Arg.conv (parse, print)
    in
    let doc =
      "Replace every port's queue discipline with a deliberately broken one \
       (lifo-ties | drop-newest), whatever the scheme chose — the negative \
       control for the --slo gate."
    in
    Arg.(
      value & opt (some fault_conv) None & info [ "inject" ] ~docv:"FAULT" ~doc)
  in
  let alerts_arg =
    let doc =
      "With --slo, write the health machine's NDJSON alert stream (one line \
       per per-tenant state transition) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "alerts" ] ~docv:"FILE" ~doc)
  in
  let metrics_interval_arg =
    let doc =
      "With --slo and --metrics-out, rewrite the metrics file every $(docv) \
       of simulated time (e.g. 500ms, 2s, 1m) during the run — periodic \
       exposition for a scraper tailing the file, not just at the end."
    in
    Arg.(
      value
      & opt (some Cliopts.duration) None
      & info [ "metrics-interval" ] ~docv:"DURATION" ~doc)
  in
  let run scale seed scheme load config (ins : Cliopts.instruments) flight slo
      inject alerts metrics_interval =
    let params =
      {
        (resolve_params scale config seed) with
        Experiments.Fig4.load;
        inject_qdisc = Option.map Conformance.Fault.qdisc inject;
      }
    in
    let scheme =
      match scheme with
      | "fifo" -> Experiments.Fig4.Fifo_both
      | "pifo-naive" -> Experiments.Fig4.Pifo_naive
      | "pifo-ideal" -> Experiments.Fig4.Pifo_pfabric_only
      | policy -> Experiments.Fig4.Qvisor_policy policy
    in
    (* Positivity is enforced by the Cliopts.pos_float converter; only the
       flag-combination constraint is left to check here. *)
    (match metrics_interval with
    | Some _ when (not slo) || ins.metrics_out = None ->
      Format.eprintf "--metrics-interval needs --slo and --metrics-out@.";
      exit 1
    | _ -> ());
    (* Refuse a bad parameter before any output is opened or created. *)
    or_die (Experiments.Fig4.validate params);
    let instr = start_run ~seed ins in
    let tel = Cliopts.Run.registry instr in
    let write_metrics path =
      Cliopts.write_metrics ~tenant_names:fig4_tenant_names path tel
    in
    let alerts_oc =
      Option.map
        (fun path ->
          try open_out path
          with Sys_error e ->
            Format.eprintf "cannot write alerts: %s@." e;
            exit 1)
        alerts
    in
    (* Graceful shutdown: an interrupted run must not truncate an NDJSON
       record mid-line or leave a stale metrics file — flush the alert
       sink and rewrite the exposition one last time, then exit through
       Stdlib.exit so at_exit channel flushes still run. *)
    Cliopts.at_signal_exit (fun () ->
        Option.iter flush alerts_oc;
        Option.iter write_metrics ins.metrics_out);
    (* Periodic exposition: rewritten whole each time, so a scraper always
       sees a complete, parseable document. *)
    let last_metrics = ref neg_infinity in
    let on_tick now =
      match (metrics_interval, ins.metrics_out) with
      | Some iv, Some path when now -. !last_metrics >= iv ->
        last_metrics := now;
        write_metrics path
      | _ -> ()
    in
    let flight_config, on_anomaly, finish_flight = setup_flight flight in
    let r =
      or_die
        (Experiments.Fig4.run ~telemetry:tel
           ~profiler:(Cliopts.Run.profiler instr) ?flight:flight_config
           ?on_anomaly ~slo ?alerts:alerts_oc ~on_tick params scheme)
    in
    Format.printf
      "@[<v>%s @ load %.2f@,small mean %.3f ms (p99 %.3f)@,large mean %.3f ms \
       (p99 %.3f)@,completed %d/%d, drops %d, cbr-ok %s@,engine %d events in \
       %.3f s (%.3g events/s)@]@."
      r.Experiments.Fig4.scheme r.Experiments.Fig4.load
      r.Experiments.Fig4.small_mean_ms r.Experiments.Fig4.small_p99_ms
      r.Experiments.Fig4.large_mean_ms r.Experiments.Fig4.large_p99_ms
      r.Experiments.Fig4.flows_completed r.Experiments.Fig4.flows_started
      r.Experiments.Fig4.drops
      (if Float.is_nan r.Experiments.Fig4.cbr_deadline_fraction then "-"
       else Printf.sprintf "%.3f" r.Experiments.Fig4.cbr_deadline_fraction)
      r.Experiments.Fig4.events_fired r.Experiments.Fig4.wall_seconds
      (float_of_int r.Experiments.Fig4.events_fired
      /. r.Experiments.Fig4.wall_seconds);
    (match r.Experiments.Fig4.slo with
    | None -> ()
    | Some report ->
      Format.printf "@.@[<v>SLO objectives (derived from the plan):@,";
      List.iter
        (fun o -> Format.printf "  %a@," Qvisor.Slo.pp_objective o)
        report.Experiments.Fig4.objectives;
      Format.printf "@]@.@[<v>SLO verdicts (%d health transition(s)):@,"
        report.Experiments.Fig4.health_alerts;
      List.iter
        (fun (tn, state, st) ->
          Format.printf "  %-10s %-10s %a@," tn.Qvisor.Tenant.name
            (Engine.Health.state_to_string state)
            Qvisor.Slo.pp_status st)
        report.Experiments.Fig4.verdicts;
      Format.printf "@]@.");
    (* A compact percentile summary of the port histograms (the live
       registry's bucket counts, via Telemetry.Histogram.quantile). *)
    (if ins.telemetry then
      let q = Engine.Telemetry.Histogram.quantile in
      let depth = Engine.Telemetry.histogram tel "net.queue_depth_pkts" in
      let sojourn = Engine.Telemetry.histogram tel "net.sojourn_seconds" in
      Format.printf "@[<v>%-24s %10s %10s %10s@," "histogram" "p50" "p90"
        "p99";
      Format.printf "%-24s %10.1f %10.1f %10.1f@," "queue depth (pkts)"
        (q depth 0.5) (q depth 0.9) (q depth 0.99);
      Format.printf "%-24s %10.4f %10.4f %10.4f@]@." "sojourn (ms)"
        (1e3 *. q sojourn 0.5)
        (1e3 *. q sojourn 0.9)
        (1e3 *. q sojourn 0.99));
    finish_flight ();
    (match (alerts_oc, alerts) with
    | Some oc, Some path ->
      close_out oc;
      progress "wrote %s@." path
    | _ -> ());
    ignore (Cliopts.Run.finish instr);
    match r.Experiments.Fig4.slo with
    | Some report
      when List.exists
             (fun (_, state, _) -> state = Engine.Health.Violating)
             report.Experiments.Fig4.verdicts ->
      progress "SLO gate: FAIL (a tenant ended the run violating)@.";
      exit 4
    | Some _ -> progress "SLO gate: pass@."
    | None -> ()
  in
  let doc =
    "Run a single (scheme, load) point, optionally auditing derived \
     per-tenant SLOs (--slo exits 4 on a violating tenant)."
  in
  Cmd.v (Cmd.info "single" ~doc)
    Term.(
      const run $ scale_arg $ seed_arg $ scheme_arg $ load_arg $ config_arg
      $ instruments_arg $ flight_arg $ slo_arg $ inject_arg $ alerts_arg
      $ metrics_interval_arg)

let validate_cmd =
  let run seed =
    (* Isolated flows of fixed sizes across the quick fabric, measured in
       simulation vs the analytic fluid model. *)
    let params = { Experiments.Fig4.quick with Experiments.Fig4.seed } in
    Format.printf
      "@[<v>Simulator cross-validation: isolated flow FCT, packet sim vs        fluid model@,%-12s | %12s | %12s | %6s@," "size" "sim (ms)"
      "fluid (ms)" "ratio";
    List.iter
      (fun size ->
        let topo, routing = Experiments.Fig4.fabric params in
        let sim = Engine.Sim.create () in
        let transport = Netsim.Transport.create ~sim () in
        let net =
          Netsim.Net.create ~sim ~topo ~routing
            ~make_qdisc:(fun _ ->
              Sched.Fifo_queue.create
                ~capacity_pkts:params.Experiments.Fig4.queue_capacity_pkts ())
            ~deliver:(Netsim.Transport.deliver transport)
            ()
        in
        Netsim.Transport.attach transport net;
        let measured = ref nan in
        ignore
          (Netsim.Transport.start_flow transport ~tenant:0
             ~ranker:(Sched.Ranker.pfabric ())
             ~src:0
             ~dst:(params.Experiments.Fig4.hosts_per_leaf + 1)
             ~size ~window:params.Experiments.Fig4.window
             ~on_complete:(fun r -> measured := Netsim.Transport.fct r)
             ());
        Engine.Sim.run sim;
        let predicted =
          Netsim.Fluid.estimate_fct ~size ~mtu_payload:1460
            ~window:params.Experiments.Fig4.window
            ~rates:
              (Netsim.Fluid.leaf_spine_path_rates ~intra_leaf:false
                 ~access_rate:params.Experiments.Fig4.access_rate
                 ~fabric_rate:params.Experiments.Fig4.fabric_rate)
            ~link_delay:params.Experiments.Fig4.link_delay ~load:0.
        in
        Format.printf "%-12d | %12.4f | %12.4f | %6.2f@," size
          (1e3 *. !measured) (1e3 *. predicted) (!measured /. predicted))
      [ 1_500; 10_000; 100_000; 1_000_000; 10_000_000 ];
    Format.printf "@]@."
  in
  let doc = "Cross-validate the packet simulator against the fluid FCT model." in
  Cmd.v (Cmd.info "validate" ~doc) Term.(const run $ seed_arg)

let () =
  let doc = "QVISOR evaluation harness (paper figures and ablations)" in
  let info = Cmd.info "experiments" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            fig4_cmd;
            ablation_quant_cmd;
            ablation_backend_cmd;
            churn_cmd;
            single_cmd;
            validate_cmd;
          ]))
