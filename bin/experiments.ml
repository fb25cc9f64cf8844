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

let jobs_arg =
  let doc =
    "Worker domains for parallel runs (floor 1; default: \
     the machine's recommended domain count minus one)."
  in
  Arg.(
    value
    & opt int (Engine.Parallel.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

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
(* Telemetry flags (shared by fig4 / single / churn)               *)
(* --------------------------------------------------------------- *)

let telemetry_arg =
  let doc =
    "Enable the metric registry (per-tenant/per-port counters, queue-depth \
     and sojourn histograms, pre-processor hit counts) and print its JSON \
     snapshot on stdout after the results."
  in
  Arg.(value & flag & info [ "telemetry" ] ~doc)

let trace_arg =
  let doc =
    "Write a sampled NDJSON packet-event trace (preprocess/enqueue/ \
     dequeue/drop/evict) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_sample_arg =
  let doc =
    "Probability that any given packet event is recorded in the trace \
     (deterministic for a fixed --seed)."
  in
  Arg.(value & opt float 1.0 & info [ "trace-sample" ] ~docv:"RATE" ~doc)

let profile_arg =
  let doc =
    "Write a span profile of the run to $(docv) as Chrome trace-event JSON \
     (load in Perfetto or chrome://tracing); a sorted self/total-time table \
     is printed to stderr.  The profiled span structure is identical for \
     any --jobs value."
  in
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)

let make_profiler profile =
  match profile with
  | Some _ -> Engine.Span.create ()
  | None -> Engine.Span.disabled

let write_profile profile profiler =
  match profile with
  | None -> ()
  | Some path ->
    (try
       Out_channel.with_open_text path (fun oc ->
           Engine.Span.write_chrome profiler oc)
     with Sys_error e ->
       Format.eprintf "cannot write profile: %s@." e;
       exit 1);
    Format.eprintf "%a@." Engine.Span.pp_table profiler;
    progress "wrote %s@." path

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

(* --------------------------------------------------------------- *)
(* Prometheus exposition / SLO flags (fig4 / single / churn)       *)
(* --------------------------------------------------------------- *)

(* The Fig. 4 harness always runs tenant 0 = pfabric, tenant 1 = edf;
   the map turns [net.tenant.0.*] into [{tenant="pfabric"}] labels. *)
let fig4_tenant_names = [ (0, "pfabric"); (1, "edf") ]

let metrics_out_arg =
  let doc =
    "Write the metric registry (plus the SLO burn-rate and health gauges \
     when --slo is on) to $(docv) in Prometheus text exposition format; \
     implies a registry even without --telemetry.  Validate or inspect the \
     file with `qvisor-cli metrics --validate'."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

(* Atomic (temp file + rename): a scraper tailing the file, or a run
   killed mid-write, can never observe a truncated exposition. *)
let write_metrics path tel =
  try
    Engine.Perf.write_atomic path (fun oc ->
        output_string oc
          (Engine.Exposition.render ~tenant_names:fig4_tenant_names tel))
  with Sys_error e ->
    Format.eprintf "cannot write metrics: %s@." e;
    exit 1

let finish_metrics metrics_out tel =
  match (metrics_out, tel) with
  | Some path, Some tel ->
    write_metrics path tel;
    progress "wrote %s@." path
  | _ -> ()

(* Returns the registry to thread through the run (None when all three
   knobs are off) and a [finish] closure that flushes the trace and
   prints the snapshot.  [force] creates a registry even when neither
   --telemetry nor --trace asked for one (the --metrics-out case). *)
let setup_telemetry ?(force = false) ~telemetry ~trace ~trace_sample ~seed () =
  if trace_sample < 0. || trace_sample > 1. then begin
    Format.eprintf "--trace-sample must be within [0,1] (got %g)@."
      trace_sample;
    exit 1
  end;
  if (not telemetry) && trace = None && not force then (None, fun () -> ())
  else begin
    let tel = Engine.Telemetry.create () in
    let close_trace =
      match trace with
      | None -> fun () -> ()
      | Some path ->
        let oc =
          try open_out path
          with Sys_error e ->
            Format.eprintf "cannot write trace: %s@." e;
            exit 1
        in
        Engine.Telemetry.attach_sink tel ~sample:trace_sample ~seed oc;
        fun () ->
          Engine.Telemetry.detach_sink tel;
          close_out oc;
          progress "wrote %s@." path
    in
    ( Some tel,
      fun () ->
        let snap = Engine.Telemetry.snapshot tel in
        close_trace ();
        if telemetry then
          print_endline (Engine.Json.to_string ~pretty:true snap) )
  end

(* Per-job telemetry for the parallel sweep: every job gets a private
   registry (and, under --trace, a private temp sink seeded from the
   job's derived stream); after the join everything is merged in job
   order, so the snapshot and the trace file do not depend on the worker
   count. *)
let setup_job_telemetry ~telemetry ~trace ~trace_sample ~metrics_out
    (grid : Experiments.Fig4.job list) =
  if trace_sample < 0. || trace_sample > 1. then begin
    Format.eprintf "--trace-sample must be within [0,1] (got %g)@."
      trace_sample;
    exit 1
  end;
  if (not telemetry) && trace = None && metrics_out = None then
    ((fun (_ : Experiments.Fig4.job) -> Engine.Telemetry.disabled), fun () -> ())
  else begin
    let slots =
      List.map
        (fun (job : Experiments.Fig4.job) ->
          let tel = Engine.Telemetry.create () in
          let tmp =
            match trace with
            | None -> None
            | Some _ ->
              let path = Filename.temp_file "qvisor-trace" ".ndjson" in
              let oc = open_out path in
              Engine.Telemetry.attach_sink tel ~sample:trace_sample
                ~seed:job.Experiments.Fig4.job_seed oc;
              Some (path, oc)
          in
          (job.Experiments.Fig4.index, tel, tmp))
        grid
    in
    let by_index = Hashtbl.create 64 in
    List.iter (fun (i, tel, _) -> Hashtbl.replace by_index i tel) slots;
    let telemetry_for (job : Experiments.Fig4.job) =
      Hashtbl.find by_index job.Experiments.Fig4.index
    in
    let finish () =
      let merged = Engine.Telemetry.create () in
      let final =
        match trace with
        | None -> None
        | Some path -> (
          match open_out path with
          | oc ->
            Engine.Telemetry.attach_sink merged ~sample:trace_sample oc;
            Some (path, oc)
          | exception Sys_error e ->
            Format.eprintf "cannot write trace: %s@." e;
            exit 1)
      in
      List.iter
        (fun (_, tel, tmp) ->
          Engine.Telemetry.merge_into ~into:merged tel;
          match tmp with
          | None -> ()
          | Some (path, oc) ->
            Engine.Telemetry.detach_sink tel;
            close_out oc;
            (match final with
            | None -> ()
            | Some (_, final_oc) ->
              let ic = open_in_bin path in
              let len = in_channel_length ic in
              output_string final_oc (really_input_string ic len);
              close_in ic);
            Sys.remove path)
        slots;
      let snap =
        if telemetry then Some (Engine.Telemetry.snapshot merged) else None
      in
      finish_metrics metrics_out (Some merged);
      (match final with
      | None -> ()
      | Some (path, oc) ->
        Engine.Telemetry.detach_sink merged;
        close_out oc;
        progress "wrote %s@." path);
      Option.iter
        (fun snap -> print_endline (Engine.Json.to_string ~pretty:true snap))
        snap
    in
    (telemetry_for, finish)
  end

let fig4_cmd =
  let run scale seed loads csv config telemetry trace trace_sample jobs profile
      metrics_out =
    let params = resolve_params scale config seed in
    let loads = parse_loads loads in
    let jobs = max 1 jobs in
    let grid =
      Experiments.Fig4.jobs_of_grid params ~loads
        ~schemes:Experiments.Fig4.paper_schemes
    in
    let telemetry_for, finish_telemetry =
      setup_job_telemetry ~telemetry ~trace ~trace_sample ~metrics_out grid
    in
    (* Per-job span profilers, merged in job order after the join — the
       merged span structure is identical for any --jobs value. *)
    let profiler = make_profiler profile in
    let profiler_slots =
      if Engine.Span.is_enabled profiler then
        List.map
          (fun (job : Experiments.Fig4.job) ->
            (job.Experiments.Fig4.index, Engine.Span.create ()))
          grid
      else []
    in
    let profiler_for (job : Experiments.Fig4.job) =
      match List.assoc_opt job.Experiments.Fig4.index profiler_slots with
      | Some p -> p
      | None -> Engine.Span.disabled
    in
    let on_start (job : Experiments.Fig4.job) =
      progress "running load %.2f %s...@." job.Experiments.Fig4.job_load
        (Experiments.Fig4.scheme_name job.Experiments.Fig4.job_scheme)
    in
    let results =
      or_die
        (Experiments.Fig4.run_jobs ~jobs ~telemetry_for ~profiler_for
           ~on_start params grid)
    in
    Format.printf "%a@." Experiments.Fig4.print_fig4 results;
    (match csv with
    | None -> ()
    | Some path ->
      Experiments.Export.save_fig4 path results;
      progress "wrote %s@." path);
    finish_telemetry ();
    List.iter
      (fun (i, p) -> Engine.Span.merge_into ~into:profiler ~tid:(i + 1) p)
      profiler_slots;
    write_profile profile profiler
  in
  let doc = "Regenerate Fig. 4 (both panels): pFabric FCT vs load, six schemes." in
  Cmd.v (Cmd.info "fig4" ~doc)
    Term.(
      const run $ scale_arg $ seed_arg $ loads_arg $ csv_arg $ config_arg
      $ telemetry_arg $ trace_arg $ trace_sample_arg $ jobs_arg $ profile_arg
      $ metrics_out_arg)

let ablation_quant_cmd =
  let run scale seed jobs =
    let params = { scale with Experiments.Fig4.seed } in
    let results =
      Engine.Parallel.map ~jobs:(max 1 jobs)
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
    Term.(const run $ scale_arg $ seed_arg $ jobs_arg)

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
      Engine.Parallel.map ~jobs:(max 1 jobs)
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
    Term.(const run $ scale_arg $ seed_arg $ jobs_arg)

let churn_cmd =
  let run seed telemetry trace trace_sample jobs profile metrics_out =
    let params = { Experiments.Churn.default with Experiments.Churn.seed } in
    let tel, finish_telemetry =
      setup_telemetry
        ~force:(metrics_out <> None)
        ~telemetry ~trace ~trace_sample ~seed ()
    in
    (* Telemetry instruments only the qvisor run (as before), so the
       single registry is touched by exactly one worker. *)
    let telemetry_for ~qvisor =
      if qvisor then Option.value tel ~default:Engine.Telemetry.disabled
      else Engine.Telemetry.disabled
    in
    (* One private profiler per scheme, merged naive-then-qvisor. *)
    let profiler = make_profiler profile in
    let prof_of_scheme ~qvisor:_ =
      if Engine.Span.is_enabled profiler then Engine.Span.create ()
      else Engine.Span.disabled
    in
    let prof_naive = prof_of_scheme ~qvisor:false in
    let prof_qvisor = prof_of_scheme ~qvisor:true in
    let profiler_for ~qvisor = if qvisor then prof_qvisor else prof_naive in
    progress "running churn (naive + qvisor)...@.";
    match
      Experiments.Churn.compare_schemes ~jobs:(max 1 jobs) ~telemetry_for
        ~profiler_for params
    with
    | [ naive; qvisor ] ->
      Format.printf "%a@.@.%a@." Experiments.Churn.print [ naive; qvisor ]
        Experiments.Churn.print_activity qvisor;
      finish_telemetry ();
      finish_metrics metrics_out tel;
      Engine.Span.merge_into ~into:profiler ~tid:1 prof_naive;
      Engine.Span.merge_into ~into:profiler ~tid:2 prof_qvisor;
      write_profile profile profiler
    | _ -> assert false
  in
  let doc = "Ablation A3: tenant churn (the paper's Fig. 2 timeline)." in
  Cmd.v (Cmd.info "churn" ~doc)
    Term.(
      const run $ seed_arg $ telemetry_arg $ trace_arg $ trace_sample_arg
      $ jobs_arg $ profile_arg $ metrics_out_arg)

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
  let run scale seed scheme load config telemetry trace trace_sample profile
      flight slo inject alerts metrics_out metrics_interval =
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
    | Some _ when (not slo) || metrics_out = None ->
      Format.eprintf "--metrics-interval needs --slo and --metrics-out@.";
      exit 1
    | _ -> ());
    let tel, finish_telemetry =
      setup_telemetry
        ~force:(metrics_out <> None)
        ~telemetry ~trace ~trace_sample ~seed ()
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
        match (metrics_out, tel) with
        | Some path, Some tel -> write_metrics path tel
        | _ -> ());
    Cliopts.exit_on_signal ();
    (* Periodic exposition: rewritten whole each time, so a scraper always
       sees a complete, parseable document. *)
    let last_metrics = ref neg_infinity in
    let on_tick now =
      match (metrics_interval, metrics_out, tel) with
      | Some iv, Some path, Some tel when now -. !last_metrics >= iv ->
        last_metrics := now;
        write_metrics path tel
      | _ -> ()
    in
    let profiler = make_profiler profile in
    let flight_config, on_anomaly, finish_flight = setup_flight flight in
    let r =
      or_die
        (Experiments.Fig4.run ?telemetry:tel ~profiler ?flight:flight_config
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
       registry's P^2 sketches, via Telemetry.Histogram.quantile). *)
    (match tel with
    | Some tel when telemetry ->
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
        (1e3 *. q sojourn 0.99)
    | _ -> ());
    finish_telemetry ();
    finish_flight ();
    (match (alerts_oc, alerts) with
    | Some oc, Some path ->
      close_out oc;
      progress "wrote %s@." path
    | _ -> ());
    finish_metrics metrics_out tel;
    write_profile profile profiler;
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
      $ telemetry_arg $ trace_arg $ trace_sample_arg $ profile_arg
      $ flight_arg $ slo_arg $ inject_arg $ alerts_arg $ metrics_out_arg
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
