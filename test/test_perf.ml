(* Tests for Engine.Perf: allocation probes, atomic file writes, the
   per-stage meters and their published gauges, GC sampling, the
   repeated-trial benchmark harness (summary statistics and JSON round
   trips), the `bench diff` comparator's verdict logic on hand-built
   reports, and the span profiler's per-span allocation deltas
   (including the recorder's zero-allocation steady state). *)

module Perf = Engine.Perf
module Tel = Engine.Telemetry

let check_float = Alcotest.(check (float 1e-9))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Summary statistics                                                 *)
(* ------------------------------------------------------------------ *)

let test_median () =
  check_float "odd" 3. (Perf.Summary.median [ 5.; 1.; 3. ]);
  check_float "even is midpoint" 2.5 (Perf.Summary.median [ 4.; 1.; 2.; 3. ]);
  check_float "singleton" 7. (Perf.Summary.median [ 7. ]);
  Alcotest.(check bool)
    "empty is nan" true
    (Float.is_nan (Perf.Summary.median []))

let test_of_samples () =
  let s = Perf.Summary.of_samples [ 2.; 1.; 3.; 4.; 100. ] in
  check_float "min" 1. s.Perf.Summary.s_min;
  check_float "median" 3. s.Perf.Summary.s_median;
  (* |x - 3| = [1; 2; 0; 1; 97] -> median 1 *)
  check_float "mad" 1. s.Perf.Summary.s_mad;
  Alcotest.(check (list (float 1e-9)))
    "samples keep trial order"
    [ 2.; 1.; 3.; 4.; 100. ]
    s.Perf.Summary.s_samples

let test_of_samples_empty () =
  let s = Perf.Summary.of_samples [] in
  Alcotest.(check bool) "min nan" true (Float.is_nan s.Perf.Summary.s_min);
  Alcotest.(check bool)
    "median nan" true
    (Float.is_nan s.Perf.Summary.s_median);
  Alcotest.(check bool) "mad nan" true (Float.is_nan s.Perf.Summary.s_mad)

(* ------------------------------------------------------------------ *)
(* Allocation probes and atomic writes                                *)
(* ------------------------------------------------------------------ *)

let test_allocated_bytes () =
  let a0 = Perf.allocated_bytes () in
  let keep = Sys.opaque_identity (Array.make 10_000 0.) in
  let a1 = Perf.allocated_bytes () in
  ignore (Sys.opaque_identity keep);
  Alcotest.(check bool) "monotonic" true (a1 >= a0);
  (* 10_000 floats in a float array: ~word_bytes per element. *)
  Alcotest.(check bool)
    "measures the array" true
    (a1 -. a0 >= 10_000. *. Perf.word_bytes);
  Alcotest.(check bool)
    "probe overhead calibrated" true
    (Perf.probe_overhead_bytes >= 0. && Perf.probe_overhead_bytes < 1024.)

let in_temp_dir f =
  let dir = Filename.temp_file "qvisor_perf" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let read_file path = In_channel.with_open_text path In_channel.input_all

let test_write_atomic () =
  in_temp_dir @@ fun dir ->
  let path = Filename.concat dir "out.json" in
  Perf.write_atomic path (fun oc -> output_string oc "first");
  Alcotest.(check string) "written" "first" (read_file path);
  Perf.write_atomic path (fun oc -> output_string oc "second");
  Alcotest.(check string) "replaced" "second" (read_file path);
  Alcotest.(check (list string))
    "no stray temp files" [ "out.json" ]
    (Array.to_list (Sys.readdir dir))

let test_write_atomic_failed_writer () =
  in_temp_dir @@ fun dir ->
  let path = Filename.concat dir "out.json" in
  Perf.write_atomic path (fun oc -> output_string oc "intact");
  (try
     Perf.write_atomic path (fun oc ->
         output_string oc "partial";
         failwith "writer died")
   with Failure _ -> ());
  Alcotest.(check string)
    "original preserved on writer failure" "intact" (read_file path);
  Alcotest.(check (list string))
    "temp file cleaned up" [ "out.json" ]
    (Array.to_list (Sys.readdir dir))

(* ------------------------------------------------------------------ *)
(* Meters                                                             *)
(* ------------------------------------------------------------------ *)

let test_meter_bad_sample () =
  Alcotest.check_raises "not a power of two"
    (Invalid_argument "Perf.Meter.create: sample must be a positive power of two")
    (fun () -> ignore (Perf.Meter.create ~sample:3 "x"));
  Alcotest.check_raises "zero"
    (Invalid_argument "Perf.Meter.create: sample must be a positive power of two")
    (fun () -> ignore (Perf.Meter.create ~sample:0 "x"))

let test_meter_counts () =
  let m = Perf.Meter.create ~sample:1 "stage" in
  Alcotest.(check string) "name" "stage" (Perf.Meter.name m);
  Alcotest.(check bool)
    "per-op nan before first sample" true
    (Float.is_nan (Perf.Meter.alloc_bytes_per_op m));
  for _ = 1 to 10 do
    Perf.Meter.before m;
    ignore (Sys.opaque_identity (Array.make 100 0));
    Perf.Meter.after m
  done;
  Alcotest.(check int) "ops" 10 (Perf.Meter.ops m);
  (* Every bracket allocates one 100-field block, header included, on
     the minor heap; sampling every event sees exactly that. *)
  Alcotest.(check (float 0.))
    "alloc/op sampled exactly" (101. *. Perf.word_bytes)
    (Perf.Meter.alloc_bytes_per_op m);
  (* The disabled meter counts nothing. *)
  Perf.Meter.before Perf.Meter.disabled;
  Perf.Meter.after Perf.Meter.disabled;
  Alcotest.(check int) "disabled ops" 0 (Perf.Meter.ops Perf.Meter.disabled)

(* The probe is exact: [n] small blocks read their bytes, and an empty
   bracket reads 0 even right after a large (major-heap) allocation and a
   collection outside it. *)
let test_meter_exact () =
  let m = Perf.Meter.create ~sample:1 "exact" in
  let n = 50 in
  Perf.Meter.before m;
  for i = 1 to n do
    ignore (Sys.opaque_identity (ref i))
  done;
  Perf.Meter.after m;
  Alcotest.(check (float 0.))
    "n refs" (float_of_int (n * 2) *. Perf.word_bytes)
    (Perf.Meter.alloc_bytes_per_op m);
  let empty = Perf.Meter.create ~sample:1 "empty" in
  for _ = 1 to 8 do
    ignore (Sys.opaque_identity (Array.make 100_000 0));
    Gc.minor ();
    Perf.Meter.before empty;
    Perf.Meter.after empty
  done;
  Alcotest.(check (float 0.))
    "empty bracket" 0. (Perf.Meter.alloc_bytes_per_op empty)

let test_meters_publish () =
  let ms = Perf.Meters.create () in
  Alcotest.(check bool) "enabled" true (Perf.Meters.is_enabled ms);
  Alcotest.(check bool)
    "disabled" false
    (Perf.Meters.is_enabled Perf.Meters.disabled);
  Alcotest.(check int) "five stages" 5 (List.length (Perf.Meters.all ms));
  let enq = Perf.Meters.enqueue ms in
  for _ = 1 to 7 do
    Perf.Meter.before enq;
    Perf.Meter.after enq
  done;
  let tel = Tel.create () in
  Perf.Meters.publish ms tel;
  Alcotest.(check int)
    "events counter carries the window" 7
    (Tel.Counter.value (Tel.counter tel "perf.stage.enqueue.events"));
  Alcotest.(check bool)
    "rate gauge set" true
    (Tel.Gauge.value (Tel.gauge tel "perf.stage.enqueue.events_per_sec") > 0.);
  (* A second publish with no new events adds zero, not the total again. *)
  Perf.Meters.publish ms tel;
  Alcotest.(check int)
    "windows, not totals" 7
    (Tel.Counter.value (Tel.counter tel "perf.stage.enqueue.events"));
  (* Publishing to a disabled registry (or from disabled meters) is a
     no-op and must not raise. *)
  Perf.Meters.publish ms Tel.disabled;
  Perf.Meters.publish Perf.Meters.disabled tel

(* ------------------------------------------------------------------ *)
(* GC sampling                                                        *)
(* ------------------------------------------------------------------ *)

let test_sample_gc () =
  let tel = Tel.create () in
  Perf.sample_gc tel;
  let gauge name = Tel.Gauge.value (Tel.gauge tel name) in
  Alcotest.(check bool) "heap words" true (gauge "gc.heap_words" > 0.);
  Alcotest.(check bool)
    "allocated bytes" true
    (gauge "gc.allocated_bytes" > 0.);
  Alcotest.(check bool)
    "minor collections" true
    (gauge "gc.minor_collections" >= 0.);
  Alcotest.(check bool)
    "top heap at least heap" true
    (gauge "gc.top_heap_words" >= gauge "gc.heap_words");
  (* Disabled registry: a silent no-op. *)
  Perf.sample_gc Tel.disabled

let test_pause_monitor () =
  match Perf.Pause.start () with
  | None -> () (* best-effort: environments without runtime events *)
  | Some pause ->
    Gc.minor ();
    Perf.Pause.poll pause;
    let tel = Tel.create () in
    Perf.sample_gc ~pause tel;
    let v = Tel.Gauge.value (Tel.gauge tel "gc.max_pause_seconds") in
    Alcotest.(check bool) "max pause is a sane figure" true (v >= 0. && v < 60.)

(* ------------------------------------------------------------------ *)
(* Bench harness                                                      *)
(* ------------------------------------------------------------------ *)

let test_bench_run () =
  let sink = ref 0 in
  let entry =
    Perf.Bench.run ~trials:3 ~min_time_s:0.001 ~name:"noop" (fun n ->
        for i = 1 to n do
          sink := !sink + i
        done)
  in
  Alcotest.(check string) "name" "noop" entry.Perf.Bench.b_name;
  Alcotest.(check int) "trials" 3 entry.Perf.Bench.b_trials;
  Alcotest.(check int)
    "one ns sample per trial" 3
    (List.length entry.Perf.Bench.b_ns_per_op.Perf.Summary.s_samples);
  Alcotest.(check bool)
    "iters calibrated" true
    (entry.Perf.Bench.b_iters >= 64);
  let ns = entry.Perf.Bench.b_ns_per_op.Perf.Summary.s_median in
  Alcotest.(check bool) "ns/op positive finite" true (Float.is_finite ns && ns > 0.);
  let ab = entry.Perf.Bench.b_alloc_per_op.Perf.Summary.s_median in
  (* The loop body allocates nothing; probe-corrected alloc/op ~ 0. *)
  Alcotest.(check bool)
    (Printf.sprintf "alloc/op about zero (%.3f B)" ab)
    true
    (Float.is_finite ab && ab >= 0. && ab < 1.)

let test_bench_run_invalid () =
  Alcotest.check_raises "trials must be positive"
    (Invalid_argument "Perf.Bench.run: trials must be positive") (fun () ->
      ignore (Perf.Bench.run ~trials:0 ~name:"x" (fun _ -> ())));
  Alcotest.check_raises "min_time must be positive"
    (Invalid_argument "Perf.Bench.run: min_time_s must be positive") (fun () ->
      ignore (Perf.Bench.run ~min_time_s:0. ~name:"x" (fun _ -> ())))

let mk_entry ?(iters = 1000) name ns alloc =
  {
    Perf.Bench.b_name = name;
    b_iters = iters;
    b_trials = List.length ns;
    b_ns_per_op = Perf.Summary.of_samples ns;
    b_alloc_per_op = Perf.Summary.of_samples alloc;
  }

let test_bench_json_round_trip () =
  let entries =
    [
      mk_entry "a" [ 1.; 2.; 3. ] [ 10.; 10.; 10. ];
      (* empty summaries serialize their nan statistics as null *)
      mk_entry "b/with-nan" [] [];
    ]
  in
  let json = Perf.Bench.report_to_json ~mode:"full" entries in
  (* The envelope must survive Json printing (nan would raise). *)
  let text = Engine.Json.to_string ~pretty:true json in
  Alcotest.(check bool)
    "schema in envelope" true
    (contains ~sub:Perf.Bench.schema text);
  match Perf.Bench.report_of_json json with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok back ->
    Alcotest.(check int) "entry count" 2 (List.length back);
    let a = List.nth back 0 and b = List.nth back 1 in
    Alcotest.(check string) "name" "a" a.Perf.Bench.b_name;
    Alcotest.(check int) "iters" 1000 a.Perf.Bench.b_iters;
    check_float "median survives" 2.
      a.Perf.Bench.b_ns_per_op.Perf.Summary.s_median;
    Alcotest.(check (list (float 1e-9)))
      "samples survive" [ 1.; 2.; 3. ]
      a.Perf.Bench.b_ns_per_op.Perf.Summary.s_samples;
    Alcotest.(check bool)
      "nan survives as nan" true
      (Float.is_nan b.Perf.Bench.b_ns_per_op.Perf.Summary.s_median)

let test_bench_read_report_errors () =
  (match Perf.Bench.read_report "/nonexistent/bench.json" with
  | Ok _ -> Alcotest.fail "read of missing file succeeded"
  | Error e ->
    Alcotest.(check bool)
      "error mentions the path" true
      (contains ~sub:"/nonexistent/bench.json" e));
  in_temp_dir @@ fun dir ->
  let path = Filename.concat dir "garbage.json" in
  Out_channel.with_open_text path (fun oc -> output_string oc "{not json");
  match Perf.Bench.read_report path with
  | Ok _ -> Alcotest.fail "read of garbage succeeded"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Diff comparator                                                    *)
(* ------------------------------------------------------------------ *)

let row_verdict report metric =
  match
    List.find_opt
      (fun r -> r.Perf.Diff.r_metric = metric)
      report.Perf.Diff.d_rows
  with
  | Some r -> r.Perf.Diff.r_verdict
  | None -> Alcotest.failf "no row for %S" metric

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Perf.Diff.verdict_name v))
    ( = )

let test_diff_identical () =
  let entries =
    [
      mk_entry "a" [ 100.; 101.; 99. ] [ 10.; 10.; 10. ];
      mk_entry "b" [ 5.; 5.; 5. ] [ 0.; 0.; 0. ];
    ]
  in
  let report = Perf.Diff.compare ~baseline:entries ~current:entries () in
  Alcotest.(check int) "four rows" 4 (List.length report.Perf.Diff.d_rows);
  Alcotest.(check int) "no regressions" 0 (Perf.Diff.regressions report);
  List.iter
    (fun r ->
      (* "b alloc B/op" has a zero baseline median: Incomparable, below. *)
      if r.Perf.Diff.r_metric <> "b alloc B/op" then
        Alcotest.check verdict r.Perf.Diff.r_metric Perf.Diff.Within_noise
          r.Perf.Diff.r_verdict)
    report.Perf.Diff.d_rows;
  (* A zero baseline median cannot express a relative change: reported
     but never gated, even on a self-diff. *)
  Alcotest.check verdict "zero baseline incomparable" Perf.Diff.Incomparable
    (row_verdict report "b alloc B/op")

let test_diff_one_sided () =
  let baseline = [ mk_entry "old-only" [ 10. ] [ 1. ] ] in
  let current = [ mk_entry "new-only" [ 10. ] [ 1. ] ] in
  let report = Perf.Diff.compare ~baseline ~current () in
  Alcotest.check verdict "gone metric" Perf.Diff.Missing_current
    (row_verdict report "old-only ns/op");
  Alcotest.check verdict "new metric" Perf.Diff.Missing_baseline
    (row_verdict report "new-only ns/op");
  Alcotest.(check int)
    "one-sided metrics never gate" 0
    (Perf.Diff.regressions report)

let test_diff_nan_baseline () =
  let baseline = [ mk_entry "a" [] [] ] in
  let current = [ mk_entry "a" [ 100.; 100.; 100. ] [ 5.; 5.; 5. ] ] in
  let report = Perf.Diff.compare ~baseline ~current () in
  Alcotest.check verdict "nan baseline" Perf.Diff.Incomparable
    (row_verdict report "a ns/op");
  Alcotest.(check int) "never gates" 0 (Perf.Diff.regressions report)

let test_diff_regression_at_threshold () =
  (* Noise-free samples: old median 100, new median exactly 150.  At
     threshold 0.5 the boundary counts, so this is a regression. *)
  let baseline = [ mk_entry "a" [ 100.; 100.; 100. ] [ 8.; 8.; 8. ] ] in
  let current = [ mk_entry "a" [ 150.; 150.; 150. ] [ 8.; 8.; 8. ] ] in
  let report = Perf.Diff.compare ~threshold:0.5 ~baseline ~current () in
  Alcotest.check verdict "boundary regresses" Perf.Diff.Regression
    (row_verdict report "a ns/op");
  Alcotest.(check int) "counted" 1 (Perf.Diff.regressions report);
  (* A hair under the threshold does not. *)
  let just_under = [ mk_entry "a" [ 149.; 149.; 149. ] [ 8.; 8.; 8. ] ] in
  let report = Perf.Diff.compare ~threshold:0.5 ~baseline ~current:just_under () in
  Alcotest.check verdict "under threshold" Perf.Diff.Within_noise
    (row_verdict report "a ns/op");
  Alcotest.(check int) "not counted" 0 (Perf.Diff.regressions report)

let test_diff_noise_band () =
  (* +30% median change, but both sides are noisy: MAD 10 each, so the
     band is 3 * 20 = 60 > the 30-unit delta -> within noise. *)
  let baseline =
    [ mk_entry "a" [ 100.; 90.; 110.; 10.; 190. ] [ 8.; 8.; 8.; 8.; 8. ] ]
  in
  let current =
    [ mk_entry "a" [ 130.; 120.; 140.; 40.; 220. ] [ 8.; 8.; 8.; 8.; 8. ] ]
  in
  let report = Perf.Diff.compare ~threshold:0.15 ~baseline ~current () in
  Alcotest.check verdict "drowned by noise" Perf.Diff.Within_noise
    (row_verdict report "a ns/op");
  Alcotest.(check int) "no regression" 0 (Perf.Diff.regressions report);
  (* The same relative change with quiet samples gates. *)
  let quiet_old = [ mk_entry "a" [ 100.; 100.; 100. ] [ 8.; 8.; 8. ] ] in
  let quiet_new = [ mk_entry "a" [ 130.; 130.; 130. ] [ 8.; 8.; 8. ] ] in
  let report =
    Perf.Diff.compare ~threshold:0.15 ~baseline:quiet_old ~current:quiet_new ()
  in
  Alcotest.check verdict "quiet change gates" Perf.Diff.Regression
    (row_verdict report "a ns/op")

let test_diff_improvement () =
  let baseline = [ mk_entry "a" [ 100.; 100.; 100. ] [ 8.; 8.; 8. ] ] in
  let current = [ mk_entry "a" [ 50.; 50.; 50. ] [ 8.; 8.; 8. ] ] in
  let report = Perf.Diff.compare ~baseline ~current () in
  Alcotest.check verdict "improvement" Perf.Diff.Improvement
    (row_verdict report "a ns/op");
  Alcotest.(check int)
    "improvements do not gate" 0
    (Perf.Diff.regressions report)

let test_diff_json_verdict () =
  let baseline = [ mk_entry "a" [ 100.; 100.; 100. ] [ 8.; 8.; 8. ] ] in
  let regressed = [ mk_entry "a" [ 200.; 200.; 200. ] [ 8.; 8.; 8. ] ] in
  let field name = function
    | Engine.Json.Obj fields -> List.assoc name fields
    | _ -> Alcotest.fail "verdict json is not an object"
  in
  let json report = Perf.Diff.report_to_json report in
  let pass = json (Perf.Diff.compare ~baseline ~current:baseline ()) in
  Alcotest.(check string)
    "pass verdict" "pass"
    (match field "verdict" pass with
    | Engine.Json.String s -> s
    | _ -> "?");
  let fail = json (Perf.Diff.compare ~baseline ~current:regressed ()) in
  Alcotest.(check string)
    "regression verdict" "regression"
    (match field "verdict" fail with
    | Engine.Json.String s -> s
    | _ -> "?");
  (* The table renders without raising and mentions the worst metric. *)
  let table =
    Format.asprintf "%a" Perf.Diff.pp_report
      (Perf.Diff.compare ~baseline ~current:regressed ())
  in
  Alcotest.(check bool)
    "table mentions metric" true
    (contains ~sub:"a ns/op" table)

(* ------------------------------------------------------------------ *)
(* Span allocation deltas                                             *)
(* ------------------------------------------------------------------ *)

let span_total prof name =
  match
    List.find_opt (fun t -> t.Engine.Span.name = name) (Engine.Span.totals prof)
  with
  | Some t -> t
  | None -> Alcotest.failf "no span total for %S" name

let test_span_alloc_delta () =
  let prof = Engine.Span.create () in
  Engine.Span.with_ prof ~name:"alloc" (fun () ->
      ignore (Sys.opaque_identity (Array.make 100_000 0.)));
  let t = span_total prof "alloc" in
  let expected = 100_000. *. Perf.word_bytes in
  (* Lower bound is exact; the upper bound is loose because a large
     array goes straight to the major heap and the collector's own
     major-heap allocations can ride along in the delta. *)
  Alcotest.(check bool)
    (Printf.sprintf "span saw the array (%.0f B)" t.Engine.Span.alloc_b)
    true
    (t.Engine.Span.alloc_b >= expected
    && t.Engine.Span.alloc_b < 2. *. expected)

let test_span_alloc_child_attribution () =
  let prof = Engine.Span.create () in
  Engine.Span.with_ prof ~name:"parent" (fun () ->
      Engine.Span.with_ prof ~name:"child" (fun () ->
          ignore (Sys.opaque_identity (Array.make 100_000 0.))));
  let parent = span_total prof "parent" and child = span_total prof "child" in
  let expected = 100_000. *. Perf.word_bytes in
  Alcotest.(check bool)
    "child carries the bytes" true
    (child.Engine.Span.self_alloc_b >= expected);
  Alcotest.(check bool)
    "parent total includes child" true
    (parent.Engine.Span.alloc_b >= expected);
  (* Parent self-allocation: just the child's instrumentation constant. *)
  Alcotest.(check bool)
    (Printf.sprintf "parent self is the instrumentation constant (%.0f B)"
       parent.Engine.Span.self_alloc_b)
    true
    (parent.Engine.Span.self_alloc_b < 2048.)

let test_span_zero_alloc_recorder () =
  (* The armed flight-recorder ring is pure scalar stores; a span around
     10k records must see (near) zero allocation — the instrumentation
     constant only. *)
  let recorder = Engine.Recorder.create () in
  let time = 1.0 in
  let prof = Engine.Span.create () in
  Engine.Span.with_ prof ~name:"recorder" (fun () ->
      for i = 1 to 10_000 do
        Engine.Recorder.record recorder ~time ~kind:Engine.Recorder.Enqueue
          ~uid:i ~link:2 ~tenant:0 ~flow:3 ~rank_before:(-1) ~rank:42
      done);
  let t = span_total prof "recorder" in
  Alcotest.(check bool)
    (Printf.sprintf "10k records allocate ~nothing (%.0f B)"
       t.Engine.Span.self_alloc_b)
    true
    (t.Engine.Span.self_alloc_b < 4096.)

let test_span_chrome_args () =
  let prof = Engine.Span.create () in
  Engine.Span.with_ prof ~name:"traced" (fun () ->
      ignore (Sys.opaque_identity (Array.make 50_000 0.)));
  let events =
    match Engine.Span.to_chrome_json prof with
    | Engine.Json.Obj fields -> (
      match List.assoc "traceEvents" fields with
      | Engine.Json.List evs -> evs
      | _ -> Alcotest.fail "traceEvents not a list")
    | _ -> Alcotest.fail "chrome export not an object"
  in
  let assoc name = function
    | Engine.Json.Obj fields -> List.assoc_opt name fields
    | _ -> None
  in
  let is_end ev =
    match assoc "ph" ev with Some (Engine.Json.String "E") -> true | _ -> false
  in
  match List.find_opt is_end events with
  | None -> Alcotest.fail "no E event in chrome export"
  | Some ev -> (
    match assoc "args" ev with
    | Some (Engine.Json.Obj args) ->
      let num name =
        match List.assoc_opt name args with
        | Some (Engine.Json.Number v) -> v
        | _ -> Alcotest.failf "missing args.%s" name
      in
      Alcotest.(check bool)
        "alloc_bytes carries the delta" true
        (num "alloc_bytes" >= 50_000. *. Perf.word_bytes);
      (* A 50k-element float array lands on the major heap directly, so
         only the words split is checked for presence and sanity. *)
      Alcotest.(check bool) "minor words" true (num "minor_words" >= 0.);
      Alcotest.(check bool)
        "promoted words" true
        (num "promoted_words" >= 0.);
      Alcotest.(check bool) "major words" true (num "major_words" >= 0.)
    | _ -> Alcotest.fail "E event has no args object")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "perf"
    [
      ( "summary",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "of_samples" `Quick test_of_samples;
          Alcotest.test_case "of_samples empty" `Quick test_of_samples_empty;
        ] );
      ( "probes",
        [
          Alcotest.test_case "allocated_bytes" `Quick test_allocated_bytes;
          Alcotest.test_case "write_atomic" `Quick test_write_atomic;
          Alcotest.test_case "write_atomic failed writer" `Quick
            test_write_atomic_failed_writer;
        ] );
      ( "meters",
        [
          Alcotest.test_case "bad sample" `Quick test_meter_bad_sample;
          Alcotest.test_case "counts and sampling" `Quick test_meter_counts;
          Alcotest.test_case "exact minor words" `Quick test_meter_exact;
          Alcotest.test_case "publish" `Quick test_meters_publish;
        ] );
      ( "gc",
        [
          Alcotest.test_case "sample_gc" `Quick test_sample_gc;
          Alcotest.test_case "pause monitor" `Quick test_pause_monitor;
        ] );
      ( "bench",
        [
          Alcotest.test_case "run" `Quick test_bench_run;
          Alcotest.test_case "run invalid" `Quick test_bench_run_invalid;
          Alcotest.test_case "json round trip" `Quick
            test_bench_json_round_trip;
          Alcotest.test_case "read_report errors" `Quick
            test_bench_read_report_errors;
        ] );
      ( "diff",
        [
          Alcotest.test_case "identical" `Quick test_diff_identical;
          Alcotest.test_case "one-sided metrics" `Quick test_diff_one_sided;
          Alcotest.test_case "nan baseline" `Quick test_diff_nan_baseline;
          Alcotest.test_case "regression at threshold" `Quick
            test_diff_regression_at_threshold;
          Alcotest.test_case "noise band" `Quick test_diff_noise_band;
          Alcotest.test_case "improvement" `Quick test_diff_improvement;
          Alcotest.test_case "json verdict" `Quick test_diff_json_verdict;
        ] );
      ( "span_alloc",
        [
          Alcotest.test_case "delta" `Quick test_span_alloc_delta;
          Alcotest.test_case "child attribution" `Quick
            test_span_alloc_child_attribution;
          Alcotest.test_case "zero-alloc recorder" `Quick
            test_span_zero_alloc_recorder;
          Alcotest.test_case "chrome args" `Quick test_span_chrome_args;
        ] );
    ]
