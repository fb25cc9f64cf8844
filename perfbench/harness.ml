(* The benchmark harness: one workload, untraced (end-to-end metrics) or
   traced (per-layer metrics), ending in one JSON result line.

     harness --workload NAME --seed N --seconds S --trace 0|1
             [--cli PATH] [--daemon-cpu N] [--smoke] [--record]

   [--smoke] runs at reduced size; [--record] prints the simulated
   statistics of a Fig. 4 workload as JSON, for perfbench/expected.json;
   [--daemon-cpu N] pins the spawned daemon and its calibrator to CPU N;
   [--calibrate FILE] is the calibrator process itself. *)

open Bcommon

let workloads = [ "fig4-sweep"; "fig4-audited"; "serve-control" ]

let fig4_workload ~smoke ~seed = function
  | "fig4-sweep" -> Some (Fig4w.sweep_workload ~smoke ~seed)
  | "fig4-audited" -> Some (Fig4w.audited_workload ~smoke ~seed)
  | _ -> None

(* Simulated seconds the in-process daemon serves in a traced run: the
   daemon's own workload gets the longer span. *)
let daemon_span ~smoke ~own = if smoke then 0.05 else if own then 0.6 else 0.3

let traced l ~smoke ~pin ~cli ~seed ~seconds workload =
  match fig4_workload ~smoke ~seed workload with
  | Some w ->
    let layers, bench = Fig4w.traced l ~smoke w ~seed in
    let daemon, _, _, _ =
      Servew.layers l ~seed ~span:(daemon_span ~smoke ~own:false)
    in
    layers @ daemon @ bench
  | None ->
    (* The daemon runs the per-hop stack of the audited point (pre-processor,
       SLO taps, flight recorder) inside its own loop, where the benchmark
       cannot wrap it: its per-hop layers come from a short quick-scale
       audited composition. *)
    let layers, _ =
      Fig4w.traced l ~smoke:true (Fig4w.audited_workload ~smoke:true ~seed) ~seed
    in
    let lp, _, _, _, _ =
      Servew.measure l ~pin ~cli ~daemon_seed:seed ~seed
        ~seconds:(if smoke then 1. else Float.min seconds 8.)
    in
    let untraced_p50 = quantile (Servew.latencies lp) 0.5 in
    let daemon, traced_p50, uncovered, loop_wall =
      Servew.layers l ~seed ~span:(daemon_span ~smoke ~own:true)
    in
    Printf.printf "serve-control: untraced rpc p50 %.3f ms, traced rpc p50 %.3f ms\n"
      untraced_p50 traced_p50;
    layers @ daemon
    @ [
        m "bench.tracing_overhead_pct" "%"
          (100. *. (traced_p50 -. untraced_p50) /. untraced_p50);
        m "bench.uncovered_s" "s" uncovered;
        m "bench.uncovered_pct" "%" (100. *. uncovered /. loop_wall);
      ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let cli = ref "_build/default/bin/qvisor_cli.exe" in
  let smoke = ref false and record = ref false in
  let daemon_cpu = ref (-1) and calibrate = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced (end-to-end) or traced (per-layer)");
      ("--cli", Arg.Set_string cli, "PATH the qvisor-cli executable");
      ("--smoke", Arg.Set smoke, " reduced size");
      ("--record", Arg.Set record, " print a Fig. 4 workload's simulated statistics");
      ( "--daemon-cpu",
        Arg.Set_int daemon_cpu,
        "N pin the daemon and its calibrator to CPU N (taskset)" );
      ("--calibrate", Arg.Set_string calibrate, "FILE run as the daemon's calibrator");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "harness --workload NAME --seed N --seconds S --trace 0|1";
  if !calibrate <> "" then Servew.calibrate !calibrate;
  if not (List.mem !workload workloads && (!trace = 0 || !trace = 1) && !seconds > 0.)
  then begin
    prerr_endline "harness: need --workload in {fig4-sweep, fig4-audited, serve-control}, --trace 0|1 and --seconds > 0";
    exit 2
  end;
  (* SIGINT/SIGTERM exit through at_exit, which stops any spawned daemon. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun n -> exit (128 + n))))
    [ Sys.sigint; Sys.sigterm ];
  let smoke = !smoke and seed = !seed and seconds = !seconds in
  let pin = if !daemon_cpu >= 0 then [ "taskset"; "-c"; string_of_int !daemon_cpu ] else [] in
  if !record then begin
    match fig4_workload ~smoke ~seed !workload with
    | Some w -> print_endline (Fig4w.record w)
    | None ->
      prerr_endline "harness: --record needs a Fig. 4 workload";
      exit 2
  end
  else begin
    let l = ledger () in
    let metrics =
      if !trace = 1 then begin
        let metrics = traced l ~smoke ~pin ~cli:!cli ~seed ~seconds !workload in
        ensure_dir out_dir;
        let path = Printf.sprintf "%s/%s-seed%d.trace.json" out_dir !workload seed in
        Tracer.write_chrome path;
        Printf.printf "wrote %d spans to %s\n" (Tracer.spans_recorded ()) path;
        metrics
        @ [
            m "failed_frac" "fraction"
              (float_of_int l.failed /. float_of_int (max 1 l.attempted));
          ]
      end
      else
        match fig4_workload ~smoke ~seed:reference_seed !workload with
        | Some w -> Fig4w.untraced l ~smoke w ~seed ~seconds
        | None -> Servew.untraced l ~pin ~cli:!cli ~seed ~seconds
    in
    print_result l metrics
  end
