(* Tests for the experiment harness: the Fig. 4 runner's invariants
   (determinism, scheme coverage), the CSV exporter, and cross-scheme
   sanity properties that mirror the paper's claims at CI scale. *)

let tiny_params =
  {
    Experiments.Fig4.quick with
    Experiments.Fig4.duration = 0.04;
    warmup = 0.01;
    drain = 0.2;
    load = 0.5;
  }

let run scheme = Experiments.Fig4.run_exn tiny_params scheme

(* ------------------------------------------------------------------ *)
(* Harness invariants                                                 *)
(* ------------------------------------------------------------------ *)

let test_deterministic_runs () =
  let a = run (Experiments.Fig4.Qvisor_policy "pfabric >> edf") in
  let b = run (Experiments.Fig4.Qvisor_policy "pfabric >> edf") in
  Alcotest.(check (float 0.)) "identical small FCT"
    a.Experiments.Fig4.small_mean_ms b.Experiments.Fig4.small_mean_ms;
  Alcotest.(check (float 0.)) "identical large FCT"
    a.Experiments.Fig4.large_mean_ms b.Experiments.Fig4.large_mean_ms;
  Alcotest.(check int) "identical drops" a.Experiments.Fig4.drops
    b.Experiments.Fig4.drops

let test_seed_changes_runs () =
  let a = run Experiments.Fig4.Pifo_pfabric_only in
  let b =
    Experiments.Fig4.run_exn
      { tiny_params with Experiments.Fig4.seed = 2 }
      Experiments.Fig4.Pifo_pfabric_only
  in
  Alcotest.(check bool) "different seeds differ" true
    (a.Experiments.Fig4.flows_started <> b.Experiments.Fig4.flows_started
    || a.Experiments.Fig4.small_mean_ms <> b.Experiments.Fig4.small_mean_ms)

let test_all_schemes_run () =
  List.iter
    (fun scheme ->
      let r = run scheme in
      Alcotest.(check bool)
        (Experiments.Fig4.scheme_name scheme ^ " completed flows")
        true
        (r.Experiments.Fig4.flows_completed > 0))
    Experiments.Fig4.paper_schemes

let test_ideal_has_no_cbr () =
  let r = run Experiments.Fig4.Pifo_pfabric_only in
  Alcotest.(check bool) "no CBR stats in the ideal" true
    (Float.is_nan r.Experiments.Fig4.cbr_deadline_fraction);
  let r' = run Experiments.Fig4.Fifo_both in
  Alcotest.(check bool) "CBR present otherwise" true
    (not (Float.is_nan r'.Experiments.Fig4.cbr_deadline_fraction))

let test_qvisor_tracks_ideal () =
  (* The paper's headline at CI scale: pfabric >> edf within 25% of the
     ideal on large flows; edf >> pfabric at least 3x worse than ideal on
     small flows. *)
  let ideal = run Experiments.Fig4.Pifo_pfabric_only in
  let good = run (Experiments.Fig4.Qvisor_policy "pfabric >> edf") in
  let bad = run (Experiments.Fig4.Qvisor_policy "edf >> pfabric") in
  let ratio =
    good.Experiments.Fig4.large_mean_ms /. ideal.Experiments.Fig4.large_mean_ms
  in
  Alcotest.(check bool)
    (Printf.sprintf "pfabric>>edf / ideal = %.3f" ratio)
    true
    (ratio < 1.25);
  Alcotest.(check bool) "edf>>pfabric hurts small flows" true
    (bad.Experiments.Fig4.small_mean_ms
    > 3. *. ideal.Experiments.Fig4.small_mean_ms)

let test_tree_backend_runs () =
  let r =
    Experiments.Fig4.run_exn
      { tiny_params with Experiments.Fig4.tree_backend = true }
      (Experiments.Fig4.Qvisor_policy "pfabric >> edf")
  in
  Alcotest.(check bool) "tree backend completes flows" true
    (r.Experiments.Fig4.flows_completed > 0)

(* The first exact per-packet ledger row: minor-heap words per packet-hop
   on one quick Fig. 4 point, uninstrumented.  The count is deterministic
   for a given compiler and build profile: 20.31 in the default profile
   on OCaml 5.1.  The budget leaves under two words of margin, so one
   more boxed float per hop (2 words) fails it, and so does a build with
   dev's -opaque (28.55), where no call across modules inlines.  The hop
   count comes from a telemetry run of the same deterministic
   simulation. *)
let test_minor_words_per_hop () =
  let params = { Experiments.Fig4.quick with Experiments.Fig4.load = 0.5 } in
  let scheme = Experiments.Fig4.Qvisor_policy "pfabric >> edf" in
  let tel = Engine.Telemetry.create () in
  let counted = Experiments.Fig4.run_exn ~telemetry:tel params scheme in
  let hops =
    Engine.Telemetry.Counter.value (Engine.Telemetry.counter tel "net.enqueue")
  in
  let w0 = Gc.minor_words () in
  let r = Experiments.Fig4.run_exn params scheme in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "same simulation" counted.Experiments.Fig4.events_fired
    r.Experiments.Fig4.events_fired;
  let per_hop = words /. float_of_int hops in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per hop over %d hops (budget 22)" per_hop
       hops)
    true (per_hop <= 22.)

let test_run_reports_bad_policy () =
  match
    Experiments.Fig4.run tiny_params
      (Experiments.Fig4.Qvisor_policy "pfabric >> nosuch")
  with
  | Ok _ -> Alcotest.fail "expected a policy error"
  | Error e ->
    Alcotest.(check bool) "unknown-tenant error" true
      (match e with Qvisor.Error.Unknown_tenant _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Parallel sweep determinism                                         *)
(* ------------------------------------------------------------------ *)

(* wall_seconds is wall-clock (and so is the sim.wall_seconds gauge):
   zero both before comparing runs. *)
let strip r = { r with Experiments.Fig4.wall_seconds = 0. }

let sweep_loads = [ 0.3; 0.6 ]

let sweep_schemes =
  [
    Experiments.Fig4.Pifo_pfabric_only;
    Experiments.Fig4.Qvisor_policy "pfabric >> edf";
  ]

(* Run the sweep through the CLIs' fan-out (Cliopts.Run): per-job
   registries, each with a private trace sink sampled at 5% and seeded by
   its job, merged in job order — returning the stripped result rows,
   the merged snapshot and the joined trace. *)
let sweep_with ~jobs =
  let grid =
    Experiments.Fig4.jobs_of_grid tiny_params ~loads:sweep_loads
      ~schemes:sweep_schemes
  in
  let trace = Filename.temp_file "qvisor_sweep" ".ndjson" in
  Fun.protect ~finally:(fun () -> Sys.remove trace) @@ fun () ->
  let instr =
    Result.get_ok
      (Cliopts.Run.create
         {
           Cliopts.no_instruments with
           trace = Some trace;
           trace_sample = 0.05;
         })
  in
  let parts =
    Array.of_list
      (Cliopts.Run.parts instr
         ~seeds:(List.map (fun j -> j.Experiments.Fig4.job_seed) grid))
  in
  let outcome =
    Experiments.Fig4.run_jobs ~jobs
      ~telemetry_for:(fun j ->
        parts.(j.Experiments.Fig4.index).Cliopts.Run.registry)
      tiny_params grid
  in
  ignore (Cliopts.Run.finish instr);
  match outcome with
  | Error e -> Alcotest.failf "sweep failed: %s" (Qvisor.Error.to_string e)
  | Ok results ->
    let merged = Cliopts.Run.registry instr in
    Engine.Telemetry.Gauge.set
      (Engine.Telemetry.gauge merged "sim.wall_seconds")
      0.;
    ( List.map strip results,
      Engine.Json.to_string (Engine.Telemetry.snapshot merged),
      In_channel.with_open_bin trace In_channel.input_all )

let test_jobs_invariant_results () =
  let serial, snap1, trace1 = sweep_with ~jobs:1 in
  let four, snap4, trace4 = sweep_with ~jobs:4 in
  Alcotest.(check (list string)) "identical CSV rows"
    (List.map Experiments.Export.fig4_row serial)
    (List.map Experiments.Export.fig4_row four);
  Alcotest.(check string) "identical merged telemetry" snap1 snap4;
  (* Compared as digests: the traces run to megabytes. *)
  let digest s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "identical trace" (digest trace1) (digest trace4);
  (* Golden pin on the fixed-seed trace: any change to a traced row, or
     to which packets the sampler keeps, shows here. *)
  Alcotest.(check string) "golden trace digest"
    "f77f2ab29def08fc31edd942b8660215" (digest trace1)

let test_jobs_of_grid_order_and_seeds () =
  let grid =
    Experiments.Fig4.jobs_of_grid tiny_params ~loads:sweep_loads
      ~schemes:sweep_schemes
  in
  Alcotest.(check int) "grid size" 4 (List.length grid);
  List.iteri
    (fun i j -> Alcotest.(check int) "indexes are serial order" i
        j.Experiments.Fig4.index)
    grid;
  (* Load-major: the first |schemes| jobs carry the first load. *)
  (match grid with
  | a :: b :: c :: _ ->
    Alcotest.(check (float 0.)) "load-major order" a.Experiments.Fig4.job_load
      b.Experiments.Fig4.job_load;
    Alcotest.(check bool) "next load follows" true
      (c.Experiments.Fig4.job_load > a.Experiments.Fig4.job_load)
  | _ -> Alcotest.fail "unexpected grid");
  let seeds = List.map (fun j -> j.Experiments.Fig4.job_seed) grid in
  let distinct = List.sort_uniq compare seeds in
  Alcotest.(check int) "derived seeds distinct" (List.length seeds)
    (List.length distinct);
  List.iter
    (fun s -> Alcotest.(check bool) "seeds non-negative" true (s >= 0))
    seeds

let test_sweep_error_propagates () =
  let grid =
    Experiments.Fig4.jobs_of_grid tiny_params ~loads:[ 0.3; 0.6 ]
      ~schemes:
        [
          Experiments.Fig4.Pifo_pfabric_only;
          Experiments.Fig4.Qvisor_policy "pfabric >> nosuch";
        ]
  in
  match Experiments.Fig4.run_jobs ~jobs:2 tiny_params grid with
  | Ok _ -> Alcotest.fail "expected the bad grid point to fail the sweep"
  | Error (Qvisor.Error.Unknown_tenant _) -> ()
  | Error e ->
    Alcotest.failf "wrong error: %s" (Qvisor.Error.to_string e)

(* ------------------------------------------------------------------ *)
(* Cliopts: the CLIs' shared converters and fan-out                   *)
(* ------------------------------------------------------------------ *)

let test_probability_conv () =
  let parse = Cmdliner.Arg.conv_parser Cliopts.probability in
  List.iter
    (fun s ->
      match parse s with
      | Ok _ -> ()
      | Error (`Msg m) -> Alcotest.failf "%S should parse: %s" s m)
    [ "0"; "0.01"; "1" ];
  List.iter
    (fun s ->
      match parse s with
      | Error _ -> ()
      | Ok v -> Alcotest.failf "%S should be rejected (got %g)" s v)
    [ "-0.1"; "1.5"; "nan"; "inf" ]

let test_signal_exit_status () =
  let status = Cliopts.exit_status_of_signal in
  Alcotest.(check int) "SIGINT" 130 (status Sys.sigint);
  Alcotest.(check int) "SIGTERM" 143 (status Sys.sigterm);
  Alcotest.(check int) "SIGHUP" 129 (status Sys.sighup);
  Alcotest.(check int) "a raw system number" 168 (status 40)

(* Point the temp directory at a fresh one for [f], so the test can see
   every file the fan-out leaves behind. *)
let with_temp_dir f =
  let dir = Filename.temp_file "qvisor_fanout" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let saved = Filename.get_temp_dir_name () in
  Filename.set_temp_dir_name dir;
  Fun.protect
    ~finally:(fun () ->
      Filename.set_temp_dir_name saved;
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* A traced run with three parts, one event each; [stop] ends it. *)
let traced_parts ~stop dir =
  let trace =
    Filename.temp_file ~temp_dir:(Filename.dirname dir) "qvisor_final"
      ".ndjson"
  in
  Fun.protect ~finally:(fun () -> Sys.remove trace) @@ fun () ->
  let instr =
    Result.get_ok
      (Cliopts.Run.create { Cliopts.no_instruments with trace = Some trace })
  in
  let parts = Cliopts.Run.parts instr ~seeds:[ 1; 2; 3 ] in
  Alcotest.(check int) "one temp file per part" 3
    (Array.length (Sys.readdir dir));
  List.iteri
    (fun uid (p : Cliopts.Run.part) ->
      Engine.Telemetry.trace p.Cliopts.Run.registry ~time:0.
        ~kind:Engine.Recorder.Enqueue ~uid ~link:0 ~tenant:0 ~flow:0
        ~rank_before:(-1) ~rank:0)
    parts;
  stop instr;
  Alcotest.(check (array string)) "temp dir empty" [||] (Sys.readdir dir);
  In_channel.with_open_bin trace In_channel.input_all

let test_fanout_finish_removes_temps () =
  with_temp_dir @@ fun dir ->
  let trace =
    traced_parts dir ~stop:(fun instr -> ignore (Cliopts.Run.finish instr))
  in
  let uids =
    String.split_on_char '\n' trace
    |> List.filter (( <> ) "")
    |> List.map (fun line ->
           match Engine.Json.of_string line with
           | Ok json -> (
             match Engine.Recorder.event_of_json json with
             | Ok ev -> ev.Engine.Recorder.uid
             | Error e -> Alcotest.fail e)
           | Error e -> Alcotest.fail e)
  in
  Alcotest.(check (list int)) "parts concatenated in order" [ 0; 1; 2 ] uids

let test_fanout_abort_removes_temps () =
  with_temp_dir @@ fun dir ->
  let trace = traced_parts dir ~stop:Cliopts.Run.abort in
  Alcotest.(check string) "nothing merged" "" trace

let test_fanout_unwritable_trace () =
  with_temp_dir @@ fun dir ->
  match
    Cliopts.Run.create
      {
        Cliopts.no_instruments with
        trace = Some (Filename.concat dir "missing/t.ndjson");
      }
  with
  | Ok _ -> Alcotest.fail "an unwritable trace must fail before any part"
  | Error msg ->
    Alcotest.(check bool) msg true
      (String.starts_with ~prefix:"cannot write trace" msg);
    Alcotest.(check (array string)) "no temp file" [||] (Sys.readdir dir)

(* ------------------------------------------------------------------ *)
(* CSV export                                                         *)
(* ------------------------------------------------------------------ *)

let sample_result =
  {
    Experiments.Fig4.scheme = "QVISOR: \"quoted\"";
    load = 0.5;
    small_mean_ms = 0.123456;
    small_p99_ms = 1.0;
    large_mean_ms = nan;
    large_p99_ms = nan;
    overall_mean_ms = 2.5;
    flows_started = 10;
    flows_completed = 9;
    drops = 42;
    cbr_deadline_fraction = 0.75;
    events_fired = 1000;
    wall_seconds = 0.5;
    slo = None;
  }

let test_csv_header_matches_row_arity () =
  let header_cols =
    List.length (String.split_on_char ',' Experiments.Export.fig4_header)
  in
  Alcotest.(check int) "11 columns" 11 header_cols;
  (* The quoted scheme contains no comma, so arity is directly checkable. *)
  let row_cols =
    List.length (String.split_on_char ',' (Experiments.Export.fig4_row sample_result))
  in
  Alcotest.(check int) "row arity" header_cols row_cols

let test_csv_nan_is_empty () =
  let row = Experiments.Export.fig4_row sample_result in
  Alcotest.(check bool) "nan serializes empty" true
    (let parts = String.split_on_char ',' row in
     List.nth parts 4 = "" && List.nth parts 5 = "")

let test_csv_quotes_escaped () =
  let row = Experiments.Export.fig4_row sample_result in
  Alcotest.(check bool) "embedded quotes doubled" true
    (String.length row > 0
    &&
    let prefix = "\"QVISOR: \"\"quoted\"\"\"" in
    String.length row >= String.length prefix
    && String.sub row 0 (String.length prefix) = prefix)

let test_csv_save_and_shape () =
  let path = Filename.temp_file "qvisor_csv" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Experiments.Export.save_fig4 path [ sample_result; sample_result ];
      let lines =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
      Alcotest.(check string) "header first" Experiments.Export.fig4_header
        (List.hd lines))

(* ------------------------------------------------------------------ *)
(* Config files                                                       *)
(* ------------------------------------------------------------------ *)

let test_config_round_trip () =
  let params =
    {
      Experiments.Fig4.default with
      Experiments.Fig4.leaves = 5;
      load = 0.65;
      levels = Some 64;
      rto = 2e-3;
    }
  in
  match Experiments.Config.parse (Experiments.Config.to_string params) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok parsed ->
    Alcotest.(check int) "leaves" 5 parsed.Experiments.Fig4.leaves;
    Alcotest.(check (float 1e-9)) "load" 0.65 parsed.Experiments.Fig4.load;
    Alcotest.(check (float 1e-9)) "rto" 2e-3 parsed.Experiments.Fig4.rto;
    Alcotest.(check bool) "levels" true
      (parsed.Experiments.Fig4.levels = Some 64)

let test_config_defaults_and_comments () =
  match
    Experiments.Config.parse "# just a comment

load = 0.3   # inline
"
  with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok p ->
    Alcotest.(check (float 1e-9)) "load set" 0.3 p.Experiments.Fig4.load;
    Alcotest.(check int) "others defaulted"
      Experiments.Fig4.default.Experiments.Fig4.leaves
      p.Experiments.Fig4.leaves

let test_config_errors () =
  let is_error text =
    Result.is_error (Experiments.Config.parse text)
  in
  Alcotest.(check bool) "unknown key" true (is_error "loda = 0.3
");
  Alcotest.(check bool) "bad value" true (is_error "leaves = many
");
  Alcotest.(check bool) "no equals" true (is_error "leaves 3
")

let test_config_load_file () =
  let path = Filename.temp_file "qvisor_cfg" ".conf" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc "seed = 9
duration = 0.01
");
      match Experiments.Config.load path with
      | Ok p ->
        Alcotest.(check int) "seed" 9 p.Experiments.Fig4.seed;
        Alcotest.(check (float 1e-9)) "duration" 0.01 p.Experiments.Fig4.duration
      | Error e -> Alcotest.failf "load failed: %s" e)

let () =
  Alcotest.run "experiments"
    [
      ( "fig4_harness",
        [
          Alcotest.test_case "deterministic" `Slow test_deterministic_runs;
          Alcotest.test_case "seed sensitivity" `Slow test_seed_changes_runs;
          Alcotest.test_case "all schemes run" `Slow test_all_schemes_run;
          Alcotest.test_case "ideal has no CBR" `Slow test_ideal_has_no_cbr;
          Alcotest.test_case "qvisor tracks ideal" `Slow test_qvisor_tracks_ideal;
          Alcotest.test_case "tree backend" `Slow test_tree_backend_runs;
          Alcotest.test_case "minor words per hop" `Slow
            test_minor_words_per_hop;
          Alcotest.test_case "bad policy is an Error" `Quick
            test_run_reports_bad_policy;
        ] );
      ( "parallel_sweep",
        [
          Alcotest.test_case "jobs=1 vs jobs=4 identical" `Slow
            test_jobs_invariant_results;
          Alcotest.test_case "grid order and seeds" `Quick
            test_jobs_of_grid_order_and_seeds;
          Alcotest.test_case "error propagates" `Slow
            test_sweep_error_propagates;
        ] );
      ( "cliopts",
        [
          Alcotest.test_case "probability converter" `Quick
            test_probability_conv;
          Alcotest.test_case "signal exit status" `Quick
            test_signal_exit_status;
          Alcotest.test_case "fan-out finish removes temp files" `Quick
            test_fanout_finish_removes_temps;
          Alcotest.test_case "fan-out abort removes temp files" `Quick
            test_fanout_abort_removes_temps;
          Alcotest.test_case "unwritable trace fails first" `Quick
            test_fanout_unwritable_trace;
        ] );
      ( "config",
        [
          Alcotest.test_case "round trip" `Quick test_config_round_trip;
          Alcotest.test_case "defaults+comments" `Quick test_config_defaults_and_comments;
          Alcotest.test_case "errors" `Quick test_config_errors;
          Alcotest.test_case "load file" `Quick test_config_load_file;
        ] );
      ( "csv",
        [
          Alcotest.test_case "header arity" `Quick test_csv_header_matches_row_arity;
          Alcotest.test_case "nan empty" `Quick test_csv_nan_is_empty;
          Alcotest.test_case "quotes escaped" `Quick test_csv_quotes_escaped;
          Alcotest.test_case "save+shape" `Quick test_csv_save_and_shape;
        ] );
    ]
