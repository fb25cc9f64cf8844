(* Benchmark harness.

   Five sections:

   1. Figure regeneration — the Fig. 4 sweep (both panels) and the two
      ablations at CI scale, printing the same rows/series the paper
      reports.  The full-scale sweep lives in `bin/experiments.exe`.

   2. Parallel scaling — the quick Fig. 4 sweep timed at 1/2/4/8 worker
      domains, verifying the merged results are identical at every
      worker count (see Engine.Parallel).

   3. Conformance throughput — scenario generation, the ideal-PIFO
      oracle, and one differential replay pass per backend, reported in
      cases/sec (the cost of `qvisor-cli conformance` per case).

   4. Engine benchmarks — Engine.Perf.Bench repeated-trial runs of every
      micro cost: the Fig. 3 data-plane path (pre-processor + PIFO) and
      the other scheduler backends, the simulator event loop, the
      per-hop instruments (recorder, telemetry, TSDB, spans) armed and
      disabled, and the control plane (synthesizer, policy parser,
      rankers, static analysis).  These quantify the "at line rate" and
      "control plane" claims of §3.2/§3.3.  Each reports min/median/MAD
      for both ns/op and allocated bytes/op, written to BENCH_engine.json
      — the baseline `qvisor-cli bench diff` gates CI against.

   5. Profiling overhead — the end-to-end events/sec cost of arming
      every port's flight recorder on a quick Fig. 4 point (< 10% by
      design), the telemetry registry's and the Engine.Perf layer's
      overhead on the same point with the SLO audit on, the serve-loop
      snapshot cost, and the span breakdown of a quick run (the source
      of results_profile.txt).

   Run everything:        dune exec bench/main.exe
   Only figures:          dune exec bench/main.exe -- figures
   Only scaling:          dune exec bench/main.exe -- scaling
   Only conformance:      dune exec bench/main.exe -- conformance
   Only engine benches:   dune exec bench/main.exe -- engine [--quick]
   Only profiling:        dune exec bench/main.exe -- profile *)

(* ------------------------------------------------------------------ *)
(* Figure regeneration (CI scale)                                     *)
(* ------------------------------------------------------------------ *)

let ok = function
  | Ok v -> v
  | Error e -> failwith (Qvisor.Error.to_string e)

(* Machine-readable snapshots next to the human results_*.txt: the
   committed BENCH_*.json seeds are the perf trajectory across PRs.
   Atomic, so an interrupted bench run never leaves a truncated
   baseline for `qvisor-cli bench diff` to choke on. *)
let write_json path json =
  Engine.Perf.write_atomic path (fun oc ->
      output_string oc (Engine.Json.to_string ~pretty:true json);
      output_char oc '\n');
  Format.printf "wrote %s@." path

let run_figures () =
  let params = Experiments.Fig4.quick in
  let loads = [ 0.2; 0.5; 0.8 ] in
  Format.printf
    "== Fig. 4 (quick scale: %d hosts; full sweep via bin/experiments.exe) ==@."
    (params.Experiments.Fig4.leaves * params.Experiments.Fig4.hosts_per_leaf);
  let results =
    ok
      (Experiments.Fig4.sweep params ~loads
         ~schemes:Experiments.Fig4.paper_schemes)
  in
  Format.printf "%a@." Experiments.Fig4.print_fig4 results;
  (* Engine throughput across the sweep — the discrete-event simulator's
     own events/sec, from the per-run profiling counters. *)
  let events, wall =
    List.fold_left
      (fun (e, w) r ->
        ( e + r.Experiments.Fig4.events_fired,
          w +. r.Experiments.Fig4.wall_seconds ))
      (0, 0.) results
  in
  if wall > 0. then
    Format.printf "engine: %d events in %.2f s (%.3g events/s)@." events wall
      (float_of_int events /. wall);
  write_json "BENCH_fig4.json"
    (Engine.Json.Obj
       [
         ("scale", Engine.Json.String "quick");
         ( "rows",
           Engine.Json.List
             (List.map
                (fun (r : Experiments.Fig4.result) ->
                  Engine.Json.Obj
                    [
                      ("scheme", Engine.Json.String r.Experiments.Fig4.scheme);
                      ("load", Engine.Json.Number r.Experiments.Fig4.load);
                      ( "small_mean_ms",
                        Engine.Json.Number r.Experiments.Fig4.small_mean_ms );
                      ( "large_mean_ms",
                        Engine.Json.Number r.Experiments.Fig4.large_mean_ms );
                      ( "drops",
                        Engine.Json.Number
                          (float_of_int r.Experiments.Fig4.drops) );
                      ( "events_fired",
                        Engine.Json.Number
                          (float_of_int r.Experiments.Fig4.events_fired) );
                      ( "events_per_sec",
                        Engine.Json.Number
                          (if r.Experiments.Fig4.wall_seconds > 0. then
                             float_of_int r.Experiments.Fig4.events_fired
                             /. r.Experiments.Fig4.wall_seconds
                           else nan) );
                    ])
                results) );
         ( "engine_events_per_sec",
           Engine.Json.Number
             (if wall > 0. then float_of_int events /. wall else nan) );
       ]);
  (* Ablation A1: quantization levels. *)
  Format.printf
    "@.== Ablation A1: quantization levels (QVISOR pfabric + edf, load %.1f) ==@."
    params.Experiments.Fig4.load;
  List.iter
    (fun levels ->
      let r =
        Experiments.Fig4.run_exn
          { params with Experiments.Fig4.levels = Some levels }
          (Experiments.Fig4.Qvisor_policy "pfabric + edf")
      in
      Format.printf "levels %4d: small %.3f ms, large %.3f ms, cbr-ok %.3f@."
        levels r.Experiments.Fig4.small_mean_ms r.Experiments.Fig4.large_mean_ms
        r.Experiments.Fig4.cbr_deadline_fraction)
    [ 4; 16; 64; 256 ];
  (* Ablation A2: deployment backends. *)
  let cap = params.Experiments.Fig4.queue_capacity_pkts in
  Format.printf
    "@.== Ablation A2: deployment backends (QVISOR pfabric >> edf, load %.1f) ==@."
    params.Experiments.Fig4.load;
  List.iter
    (fun (name, backend) ->
      let r =
        Experiments.Fig4.run_exn
          { params with Experiments.Fig4.backend }
          (Experiments.Fig4.Qvisor_policy "pfabric >> edf")
      in
      Format.printf "%-18s: small %.3f ms, large %.3f ms, drops %d@." name
        r.Experiments.Fig4.small_mean_ms r.Experiments.Fig4.large_mean_ms
        r.Experiments.Fig4.drops)
    [
      ("ideal PIFO", None);
      ( "SP bank (2q)",
        Some (Qvisor.Deploy.Sp_bank { num_queues = 2; queue_capacity_pkts = cap }) );
      ( "SP bank (8q)",
        Some (Qvisor.Deploy.Sp_bank { num_queues = 8; queue_capacity_pkts = cap }) );
      ( "SP-PIFO (8q)",
        Some (Qvisor.Deploy.Sp_pifo { num_queues = 8; queue_capacity_pkts = cap }) );
    ];
  (* Ablation A3: tenant churn (Fig. 2 timeline) at CI scale. *)
  let churn_params =
    {
      Experiments.Churn.default with
      Experiments.Churn.t_end = 0.15;
      t_join = 0.06;
      drain = 0.2;
    }
  in
  let naive = Experiments.Churn.run churn_params ~qvisor:false in
  let qvisor = Experiments.Churn.run churn_params ~qvisor:true in
  Format.printf "@.%a@." Experiments.Churn.print [ naive; qvisor ]

(* ------------------------------------------------------------------ *)
(* Parallel scaling (Engine.Parallel over the Fig. 4 grid)             *)
(* ------------------------------------------------------------------ *)

let run_scaling () =
  let params = Experiments.Fig4.quick in
  let loads = [ 0.2; 0.5; 0.8 ] in
  let schemes = Experiments.Fig4.paper_schemes in
  let grid = List.length loads * List.length schemes in
  Format.printf
    "== parallel scaling: quick Fig. 4 sweep (%d grid points) ==@." grid;
  Format.printf "recommended domain count on this machine: %d@."
    (Domain.recommended_domain_count ());
  (* Compare CSV rows (nan-safe: nan fields serialize empty) plus the
     simulator event counts; wall_seconds is wall-clock and excluded. *)
  let strip r =
    ( Experiments.Export.fig4_row r,
      r.Experiments.Fig4.events_fired )
  in
  let time_once jobs =
    let t0 = Unix.gettimeofday () in
    let results = ok (Experiments.Fig4.sweep ~jobs params ~loads ~schemes) in
    (Unix.gettimeofday () -. t0, List.map strip results)
  in
  (* One untimed pass to warm code paths and the allocator. *)
  ignore (time_once 1);
  let serial, baseline = time_once 1 in
  Format.printf "jobs 1: %7.2f s  speedup 1.00x  (baseline)@." serial;
  List.iter
    (fun jobs ->
      let dt, results = time_once jobs in
      let identical = results = baseline in
      Format.printf "jobs %d: %7.2f s  speedup %.2fx  results %s@." jobs dt
        (serial /. dt)
        (if identical then "identical" else "DIFFER");
      if not identical then begin
        Format.printf "scaling: results differ at jobs=%d@." jobs;
        exit 1
      end)
    [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Conformance throughput (scenario verification as a workload)        *)
(* ------------------------------------------------------------------ *)

let run_conformance () =
  let cases = 200 and seed = 42 in
  Format.printf "== conformance throughput (%d seeded cases, seed %d) ==@."
    cases seed;
  Format.printf
    "recommended domain count on this machine: %d (parallel rows below are \
     overhead-bound when this is 1)@."
    (Domain.recommended_domain_count ());
  (* Pre-generate the fleet so the timings below isolate verification. *)
  let t0 = Unix.gettimeofday () in
  let scenarios =
    List.init cases (fun i ->
        Conformance.Scenario.generate ~seed:(Engine.Rng.derive ~seed i))
  in
  let gen_dt = Unix.gettimeofday () -. t0 in
  let events =
    List.fold_left (fun a sc -> a + Conformance.Scenario.num_events sc) 0
      scenarios
  in
  Format.printf "generate: %7.3f s  (%8.0f cases/s, %d events)@." gen_dt
    (float_of_int cases /. gen_dt)
    events;
  let plans =
    List.map (fun sc -> (sc, ok (Conformance.Scenario.plan sc))) scenarios
  in
  (* Oracle pass alone, then one full replay pass per backend. *)
  let time name f =
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    Format.printf "%-14s %7.3f s  (%8.0f cases/s)@." name dt
      (float_of_int cases /. dt)
  in
  time "oracle" (fun () ->
      List.iter
        (fun (sc, plan) -> ignore (Conformance.Oracle.run ~plan sc))
        plans);
  List.iter
    (fun spec ->
      time spec.Conformance.Differential.bname (fun () ->
          List.iter
            (fun (sc, plan) ->
              match
                spec.Conformance.Differential.make ~plan
                  ~capacity_pkts:sc.Conformance.Scenario.capacity_pkts
              with
              | Error _ -> ()
              | Ok qdisc ->
                ignore (Conformance.Differential.replay ~plan ~qdisc sc))
            plans))
    (Conformance.Differential.standard_backends ());
  (* The end-to-end pipeline (generate + oracle + all backends + stats),
     serial vs parallel, on a fleet large enough to amortize domain
     startup. *)
  let pipeline_cases = 10 * cases in
  Format.printf "pipeline below: %d cases@." pipeline_cases;
  List.iter
    (fun jobs ->
      let t0 = Unix.gettimeofday () in
      ignore
        (Conformance.Differential.run_cases ~jobs ~seed ~cases:pipeline_cases ());
      let dt = Unix.gettimeofday () -. t0 in
      Format.printf "%-14s %7.3f s  (%8.0f cases/s)@."
        (Printf.sprintf "pipeline(j=%d)" jobs)
        dt
        (float_of_int pipeline_cases /. dt))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Engine micro-benchmarks (Perf.Bench -> BENCH_engine.json)          *)
(* ------------------------------------------------------------------ *)

(* The paper's Fig. 3 worked example: three tenants under
   "T1 >> T2 + T3". *)
let fig3_plan () =
  let tenants =
    [
      Qvisor.Tenant.make ~algorithm:"pfabric" ~rank_lo:0 ~rank_hi:30_000 ~id:0
        ~name:"T1" ();
      Qvisor.Tenant.make ~algorithm:"edf" ~rank_lo:0 ~rank_hi:150 ~id:1
        ~name:"T2" ();
      Qvisor.Tenant.make ~algorithm:"stfq" ~rank_lo:0 ~rank_hi:4_000 ~id:2
        ~name:"T3" ();
    ]
  in
  Qvisor.Synthesizer.synthesize_exn ~tenants
    ~policy:(Qvisor.Policy.parse_exn "T1 >> T2 + T3")
    ()

(* Engine.Perf.Bench: repeated trials with min/median/MAD for both ns/op
   and allocated bytes/op, serialized to the schema that
   `qvisor-cli bench diff` gates CI on. *)
let run_engine ~trials ~min_time_s ~out ~mode () =
  Format.printf
    "== engine benchmarks (%d trials, >= %g s each; %s mode) ==@." trials
    min_time_s mode;
  let bench name f = Engine.Perf.Bench.run ~trials ~min_time_s ~name f in
  (* Steady-state enqueue+dequeue churn on a part-full queue: one op is
     one dequeue plus one enqueue, so occupancy never drifts.  Runs on
     the allocation-free [enqueue_drop] hot path, as the fabric does, and
     recycles the dequeued packet with a freshly rolled rank — the entry
     measures the qdisc, not [Packet.make], and its alloc B/op column
     documents the backend's own allocation per operation. *)
  let drop_sink (_ : Sched.Packet.t) = () in
  let churn_bench ?(prefill = 64) ?(rank_hi = 65535) name make =
    let q = make () in
    let rng = Engine.Rng.create ~seed:7 in
    for _ = 1 to prefill do
      q.Sched.Qdisc.enqueue_drop
        (Sched.Packet.make
           ~rank:(Engine.Rng.int_range rng ~lo:0 ~hi:rank_hi)
           ~flow:1 ~size:1500 ())
        drop_sink
    done;
    bench name (fun n ->
        for _ = 1 to n do
          match q.Sched.Qdisc.dequeue () with
          | Some p ->
            p.Sched.Packet.rank <- Engine.Rng.int_range rng ~lo:0 ~hi:rank_hi;
            q.Sched.Qdisc.enqueue_drop p drop_sink
          | None -> ()
        done)
  in
  (* The exact PIFO (what `pifo` deploys). *)
  let bench_pifo () =
    churn_bench "pifo/enqueue-dequeue" (fun () ->
        Sched.Bucket_queue.create ~capacity_pkts:256 ())
  in
  (* Default-backend stress shapes: a deep queue (4,096 packets, where
     every operation walks a twelve-level heap) and a dense rank space
     (all FIFO-tie traffic). *)
  let bench_bucket_deep () =
    churn_bench ~prefill:4096 "bucket/enqueue-dequeue-deep" (fun () ->
        Sched.Bucket_queue.create ~capacity_pkts:8192 ())
  in
  let bench_bucket_dense () =
    churn_bench ~rank_hi:63 "bucket/enqueue-dequeue-dense" (fun () ->
        Sched.Bucket_queue.create ~capacity_pkts:256 ())
  in
  (* A full deep queue where every arrival evicts the worst packet.  Ranks
     count down, so each arrival beats everything queued: one op is one
     insert of a new best rank and one removal of the worst, each a full
     root-to-leaf walk.  The evicted packet is the next arrival. *)
  let bench_bucket_evict () =
    let cap = 8192 in
    let q = Sched.Bucket_queue.create ~rank_max:max_int ~capacity_pkts:cap () in
    let next = ref max_int in
    let arrival = ref (Sched.Packet.make ~flow:1 ~size:1500 ()) in
    let on_drop p = arrival := p in
    for _ = 1 to cap do
      q.Sched.Qdisc.enqueue_drop
        (Sched.Packet.make ~rank:!next ~flow:1 ~size:1500 ())
        drop_sink;
      decr next
    done;
    bench "bucket/evict-deep" (fun n ->
        for _ = 1 to n do
          let p = !arrival in
          p.Sched.Packet.rank <- !next;
          decr next;
          q.Sched.Qdisc.enqueue_drop p on_drop
        done)
  in
  let bench_fifo () =
    churn_bench "fifo/enqueue-dequeue" (fun () ->
        Sched.Fifo_queue.create ~capacity_pkts:256 ())
  in
  (* The simulator's schedule+fire cycle, batched so the event queue
     stays shallow (as it does in the fabric's steady state). *)
  let bench_event_loop () =
    let sim = Engine.Sim.create () in
    bench "engine/event-loop" (fun n ->
        let batch = 1024 in
        let remaining = ref n in
        while !remaining > 0 do
          let k = Stdlib.min batch !remaining in
          for _ = 1 to k do
            Engine.Sim.schedule_after_ sim ~delay:1e-9 (fun () -> ())
          done;
          Engine.Sim.run sim;
          remaining := !remaining - k
        done)
  in
  let preprocessor_bench name pre =
    let packet = Sched.Packet.make ~tenant:1 ~rank:100 ~flow:1 ~size:1500 () in
    bench name (fun n ->
        for _ = 1 to n do
          packet.Sched.Packet.rank <- 100;
          Qvisor.Preprocessor.process pre packet
        done)
  in
  let bench_preprocessor () =
    preprocessor_bench "preprocessor/process"
      (Qvisor.Preprocessor.of_plan (fig3_plan ()))
  in
  (* Float arguments for the entries below come pre-boxed: a [float ref]
     hands its boxed float to an out-of-line call as is, whereas a float
     computed in the loop is boxed for the call, and that box would be
     charged to the callee's alloc B/op.  Loops cycle through the 1024
     cells with [i land 1023]. *)
  let boxed f = Array.init 1024 (fun i -> ref (f i)) in
  (* The same cycle with ~128 events pending at delays from 0.1 us to
     1 ms (log-spread): pops scan the slot bitmap, cross slot words and
     reach the overflow heap, as the fabric's mix of per-hop, transport
     and timer events does.  Each op schedules one event and fires one. *)
  let bench_event_loop_spread () =
    let sim = Engine.Sim.create () in
    let delays =
      boxed (fun i -> 1e-7 *. (1e4 ** (float_of_int ((i * 617) land 1023) /. 1023.)))
    in
    bench "engine/event-loop-spread" (fun n ->
        let left = ref n and k = ref 0 in
        let rec fire () =
          if !left > 0 then begin
            decr left;
            incr k;
            Engine.Sim.schedule_after_ sim ~delay:!(delays.(!k land 1023)) fire
          end
        in
        for _ = 1 to Stdlib.min 128 n do
          fire ()
        done;
        Engine.Sim.run sim)
  in
  let recorder_bench name recorder =
    let times = boxed float_of_int in
    bench name (fun n ->
        for i = 1 to n do
          Engine.Recorder.record recorder ~time:!(times.(i land 1023))
            ~kind:Engine.Recorder.Enqueue ~uid:i ~link:2 ~tenant:0 ~flow:3
            ~rank_before:(-1) ~rank:42
        done)
  in
  (* The armed flight-recorder ring: its alloc B/op column documents its
     zero-allocation steady state. *)
  let bench_recorder () =
    recorder_bench "recorder/record" (Engine.Recorder.create ())
  in
  (* The retention store's hot path: one observation folded into every
     tier.  Its alloc B/op column documents the store's allocation-free
     ingest.  The clock advances 1.024 s per 1024 observations, the
     bucket turnover of one observation per simulated millisecond;
     re-boxing it costs the loop 16 B per 1024 ops. *)
  let bench_tsdb () =
    let store = Engine.Tsdb.create () in
    let s = Engine.Tsdb.series store ~kind:Engine.Tsdb.Gauge "bench.gauge" in
    (* Opaque, so the ref stays a heap cell holding a boxed float
       instead of becoming an unboxed local. *)
    let clock = Sys.opaque_identity (ref 0.) in
    let values = boxed float_of_int in
    bench "tsdb/observe" (fun n ->
        for i = 1 to n do
          if i land 1023 = 0 then clock := !clock +. 1.024;
          Engine.Tsdb.observe store s ~time:!clock !(values.(i land 1023))
        done)
  in
  (* The per-hop instrument: one histogram observation (moments plus one
     bucket increment), fed delay-like samples. *)
  let bench_histogram () =
    let h =
      Engine.Telemetry.histogram (Engine.Telemetry.create ()) "bench.histogram"
    in
    let xs =
      let rng = Engine.Rng.create ~seed:11 in
      boxed (fun _ -> 1e-6 *. Engine.Rng.float rng)
    in
    bench "telemetry/histogram-observe" (fun n ->
        for i = 1 to n do
          Engine.Telemetry.Histogram.observe h !(xs.(i land 1023))
        done)
  in
  (* The other scheduler backends, through the same churn. *)
  let bench_sp_pifo () =
    churn_bench "sp-pifo/enqueue-dequeue" (fun () ->
        Sched.Sp_pifo.create ~num_queues:8 ~queue_capacity_pkts:256 ())
  in
  let bench_aifo () =
    churn_bench "aifo/enqueue-dequeue" (fun () ->
        Sched.Aifo.create ~capacity_pkts:256 ())
  in
  let bench_drr () =
    churn_bench "drr/enqueue-dequeue" (fun () ->
        Sched.Drr_bank.create ~num_queues:8 ~queue_capacity_pkts:64
          ~quantum_bytes:1518
          ~classify:(fun p -> p.Sched.Packet.rank / 8192)
          ())
  in
  let bench_calendar () =
    churn_bench "calendar/enqueue-dequeue" (fun () ->
        Sched.Calendar_queue.create ~num_buckets:32 ~bucket_width:2048
          ~capacity_pkts:256 ())
  in
  let bench_pifo_tree () =
    churn_bench "pifo-tree/enqueue-dequeue" (fun () ->
        Sched.Pifo_tree.to_qdisc
          ~classify:(fun p -> p.Sched.Packet.rank mod 3)
          ~capacity_pkts:256
          (Sched.Pifo_tree.strict
             [
               Sched.Pifo_tree.leaf ();
               Sched.Pifo_tree.wfq
                 [ (Sched.Pifo_tree.leaf (), 1.0); (Sched.Pifo_tree.leaf (), 2.0) ];
             ]))
  in
  (* Control-plane costs of hundreds of ns and more, where one closure
     call per op is noise. *)
  let repeat name op =
    bench name (fun n ->
        for _ = 1 to n do
          op ()
        done)
  in
  let bench_synthesizer_small () =
    let tenants =
      [
        Qvisor.Tenant.make ~rank_hi:30_000 ~id:0 ~name:"pfabric" ();
        Qvisor.Tenant.make ~rank_hi:150 ~id:1 ~name:"edf" ();
      ]
    in
    let policy = Qvisor.Policy.parse_exn "pfabric >> edf" in
    repeat "synthesizer/2-tenant" (fun () ->
        ignore (Qvisor.Synthesizer.synthesize_exn ~tenants ~policy ()))
  in
  let bench_synthesizer_large () =
    let tenants =
      List.init 16 (fun i ->
          Qvisor.Tenant.make ~rank_hi:10_000 ~id:i
            ~name:(Printf.sprintf "T%d" i) ())
    in
    let policy =
      Qvisor.Policy.parse_exn
        "T0 >> T1 > T2 + T3 >> T4 + T5 + T6 + T7 >> T8 > T9 > T10 >> T11 + \
         T12 >> T13 >> T14 + T15"
    in
    repeat "synthesizer/16-tenant" (fun () ->
        ignore (Qvisor.Synthesizer.synthesize_exn ~tenants ~policy ()))
  in
  let bench_policy_parse () =
    repeat "policy/parse" (fun () ->
        ignore (Qvisor.Policy.parse_exn "T1 >> T2 > T3 + T4 >> T5"))
  in
  let bench_ranker name ranker p =
    bench name (fun n ->
        for _ = 1 to n do
          ignore (Sched.Ranker.tag ranker ~now:0. p)
        done)
  in
  let bench_ranker_pfabric () =
    bench_ranker "ranker/pfabric-tag" (Sched.Ranker.pfabric ())
      (Sched.Packet.make ~remaining:250_000 ~flow:1 ~size:1500 ())
  in
  let bench_ranker_stfq () =
    bench_ranker "ranker/stfq-tag" (Sched.Ranker.stfq ())
      (Sched.Packet.make ~flow:1 ~size:1500 ())
  in
  let bench_analysis () =
    let plan = fig3_plan () in
    repeat "analysis/check-plan" (fun () -> ignore (Qvisor.Analysis.check plan))
  in
  (* Instruments armed and disabled: a disabled registry, recorder or
     profiler hands out inert handles, so the disabled entries measure
     what instrumented code pays when observability is off. *)
  let bench_counter name tel =
    let c = Engine.Telemetry.counter tel "bench.counter" in
    bench name (fun n ->
        for _ = 1 to n do
          Engine.Telemetry.Counter.incr c
        done)
  in
  let bench_counter_armed () =
    bench_counter "telemetry/counter-incr" (Engine.Telemetry.create ())
  in
  let bench_counter_disabled () =
    bench_counter "telemetry/counter-incr-disabled" Engine.Telemetry.disabled
  in
  (* preprocessor/process with a live registry attached: the delta
     against the uninstrumented entry is the observability tax. *)
  let bench_preprocessor_instrumented () =
    preprocessor_bench "telemetry/preprocessor-process"
      (Qvisor.Preprocessor.of_plan ~telemetry:(Engine.Telemetry.create ())
         (fig3_plan ()))
  in
  let bench_recorder_disabled () =
    recorder_bench "recorder/record-disabled" Engine.Recorder.disabled
  in
  (* An enabled profiler keeps every span, so each timed call gets a
     fresh one: memory stays bounded by one trial's spans. *)
  let span_bench name profiler =
    bench name (fun n ->
        let profiler = profiler () in
        for _ = 1 to n do
          Engine.Span.with_ profiler ~name:"bench.span" Fun.id
        done)
  in
  let bench_span () = span_bench "span/with" Engine.Span.create in
  let bench_span_disabled () =
    span_bench "span/with-disabled" (fun () -> Engine.Span.disabled)
  in
  let entries =
    [
      bench_pifo ();
      bench_bucket_deep ();
      bench_bucket_dense ();
      bench_bucket_evict ();
      bench_fifo ();
      bench_event_loop ();
      bench_event_loop_spread ();
      bench_preprocessor ();
      bench_recorder ();
      bench_tsdb ();
      bench_histogram ();
      bench_sp_pifo ();
      bench_aifo ();
      bench_drr ();
      bench_calendar ();
      bench_pifo_tree ();
      bench_synthesizer_small ();
      bench_synthesizer_large ();
      bench_policy_parse ();
      bench_ranker_pfabric ();
      bench_ranker_stfq ();
      bench_analysis ();
      bench_counter_armed ();
      bench_counter_disabled ();
      bench_preprocessor_instrumented ();
      bench_recorder_disabled ();
      bench_span ();
      bench_span_disabled ();
    ]
  in
  List.iter
    (fun (e : Engine.Perf.Bench.entry) ->
      Format.printf
        "%-31s %10.1f ns/op (min %.1f, MAD %.2f)  %8.1f alloc B/op@."
        e.Engine.Perf.Bench.b_name e.b_ns_per_op.Engine.Perf.Summary.s_median
        e.b_ns_per_op.Engine.Perf.Summary.s_min
        e.b_ns_per_op.Engine.Perf.Summary.s_mad
        e.b_alloc_per_op.Engine.Perf.Summary.s_median)
    entries;
  write_json out (Engine.Perf.Bench.report_to_json ~mode entries)

(* ------------------------------------------------------------------ *)
(* Profiling & flight-recorder overhead                               *)
(* ------------------------------------------------------------------ *)

let run_profile () =
  Format.printf "== profiling & flight-recorder overhead ==@.";
  (* End to end: a quick Fig. 4 point with every port's flight recorder
     armed vs off, compared on engine events/sec.  The ring is meant to
     be cheap enough to leave always-on: overhead should stay under 10%. *)
  let params =
    (* Three quick-scale arrival windows: long enough that one run's
       events/sec is stable, short enough to afford interleaved reps. *)
    {
      Experiments.Fig4.quick with
      Experiments.Fig4.load = 0.5;
      duration = 3. *. Experiments.Fig4.quick.Experiments.Fig4.duration;
    }
  in
  let scheme = Experiments.Fig4.Qvisor_policy "pfabric >> edf" in
  let rate ?flight ?(slo = false) () =
    match Experiments.Fig4.run ?flight ~slo params scheme with
    | Error e -> failwith (Qvisor.Error.to_string e)
    | Ok r ->
      float_of_int r.Experiments.Fig4.events_fired
      /. r.Experiments.Fig4.wall_seconds
  in
  (* Interleaved best-of-8: events/sec drifts run to run on a busy
     machine, and alternating off/on/slo triples expose every
     configuration to the same drift; the per-configuration best
     approximates the noise-free rate.  The SLO run arms the flight
     recorder by default, so its marginal auditing cost is measured
     against the recorder-on rate, not the bare one. *)
  ignore (rate ());
  let rate_off = ref 0. and rate_on = ref 0. and rate_slo = ref 0. in
  for _ = 1 to 8 do
    rate_off := Float.max !rate_off (rate ());
    rate_on := Float.max !rate_on (rate ~flight:Netsim.Net.default_flight ());
    rate_slo := Float.max !rate_slo (rate ~slo:true ())
  done;
  let rate_off = !rate_off and rate_on = !rate_on and rate_slo = !rate_slo in
  let overhead = 100. *. (1. -. (rate_on /. rate_off)) in
  let slo_overhead = 100. *. (1. -. (rate_slo /. rate_on)) in
  Format.printf
    "fig4 quick point: recorder off %.3g events/s, on %.3g events/s \
     (overhead %.1f%%)@."
    rate_off rate_on overhead;
  Format.printf
    "fig4 quick point: slo audit %.3g events/s (%.1f%% over the \
     recorder-armed rate it builds on)@."
    rate_slo slo_overhead;
  (* Two layers on the SLO-audited point, from one interleaved loop.
     The telemetry registry (per-port and per-tenant counters, the depth,
     sojourn and rank-error histograms): registry on vs disabled, both
     without perf meters.  The Engine.Perf layer (stage meters + GC
     sampling + pause monitor), armed by an enabled registry: perf on vs
     off with the registry on both sides, so the only delta is the perf
     instrumentation itself; it is designed to stay under 10%. *)
  let rate_perf ~telemetry ~perf () =
    let tel =
      if telemetry then Engine.Telemetry.create ()
      else Engine.Telemetry.disabled
    in
    match Experiments.Fig4.run ~telemetry:tel ~slo:true ~perf params scheme with
    | Error e -> failwith (Qvisor.Error.to_string e)
    | Ok r ->
      float_of_int r.Experiments.Fig4.events_fired
      /. r.Experiments.Fig4.wall_seconds
  in
  ignore (rate_perf ~telemetry:true ~perf:false ());
  let rate_tel_off = ref 0. in
  let rate_perf_off = ref 0. and rate_perf_on = ref 0. in
  for _ = 1 to 8 do
    rate_tel_off :=
      Float.max !rate_tel_off (rate_perf ~telemetry:false ~perf:false ());
    rate_perf_off :=
      Float.max !rate_perf_off (rate_perf ~telemetry:true ~perf:false ());
    rate_perf_on :=
      Float.max !rate_perf_on (rate_perf ~telemetry:true ~perf:true ())
  done;
  let rate_tel_off = !rate_tel_off in
  let rate_perf_off = !rate_perf_off and rate_perf_on = !rate_perf_on in
  let tel_overhead = 100. *. (1. -. (rate_perf_off /. rate_tel_off)) in
  let perf_overhead = 100. *. (1. -. (rate_perf_on /. rate_perf_off)) in
  Format.printf
    "fig4 quick point: telemetry off %.3g events/s, on %.3g events/s \
     (overhead %.1f%%)@."
    rate_tel_off rate_perf_off tel_overhead;
  Format.printf
    "fig4 quick point: perf telemetry off %.3g events/s, on %.3g events/s \
     (overhead %.1f%%)@."
    rate_perf_off rate_perf_on perf_overhead;
  (* The serve-loop snapshotter: fold the whole live registry into the
     retention store, the walk Daemon.Server.snapshot performs once per
     snapshot interval (default: every simulated second).  Measured
     against a registry populated by a real quick-scale run, and reported
     as a fraction of that run's wall time per simulated second — the
     budget says < 2%. *)
  let snap_tel = Engine.Telemetry.create () in
  let snap_run =
    match
      Experiments.Fig4.run ~telemetry:snap_tel ~slo:true params scheme
    with
    | Error e -> failwith (Qvisor.Error.to_string e)
    | Ok r -> r
  in
  let store = Engine.Tsdb.create () in
  let snapshot ~time = Engine.Tsdb.snapshot store snap_tel ~time in
  let snap_iters = 20_000 in
  snapshot ~time:0.;
  let t0 = Unix.gettimeofday () in
  for i = 1 to snap_iters do
    snapshot ~time:(float_of_int i)
  done;
  let snap_dt = Unix.gettimeofday () -. t0 in
  let snap_ns = 1e9 *. snap_dt /. float_of_int snap_iters in
  (* Wall seconds this run needs to simulate one second, vs one snapshot
     per simulated second. *)
  let wall_per_sim_s =
    snap_run.Experiments.Fig4.wall_seconds
    /. params.Experiments.Fig4.duration
  in
  let snap_overhead = 100. *. (snap_ns /. 1e9) /. wall_per_sim_s in
  Format.printf
    "tsdb snapshot: %d series in %.1f us/snapshot (%.4f%% of the fig4 quick \
     point's wall time per simulated second)@."
    (Engine.Tsdb.series_count store)
    (snap_ns /. 1e3) snap_overhead;
  write_json "BENCH_profile.json"
    (Engine.Json.Obj
       [
         ( "fig4_quick_events_per_sec",
           Engine.Json.Obj
             [
               ("off", Engine.Json.Number rate_off);
               ("recorder", Engine.Json.Number rate_on);
               ("slo", Engine.Json.Number rate_slo);
             ] );
         ("recorder_overhead_pct", Engine.Json.Number overhead);
         ("slo_overhead_pct", Engine.Json.Number slo_overhead);
         ( "telemetry_events_per_sec",
           Engine.Json.Obj
             [
               ("off", Engine.Json.Number rate_tel_off);
               ("on", Engine.Json.Number rate_perf_off);
             ] );
         ("telemetry_overhead_pct", Engine.Json.Number tel_overhead);
         ( "perf_telemetry_events_per_sec",
           Engine.Json.Obj
             [
               ("off", Engine.Json.Number rate_perf_off);
               ("on", Engine.Json.Number rate_perf_on);
             ] );
         ("perf_overhead_pct", Engine.Json.Number perf_overhead);
         ( "tsdb_snapshot",
           Engine.Json.Obj
             [
               ( "series",
                 Engine.Json.Number
                   (float_of_int (Engine.Tsdb.series_count store)) );
               ("ns_per_snapshot", Engine.Json.Number snap_ns);
               ("overhead_pct", Engine.Json.Number snap_overhead);
             ] );
       ]);
  (* Where a quick Fig. 4 run spends its time (the committed span
     breakdown in results_profile.txt comes from here). *)
  let profiler = Engine.Span.create () in
  ignore (Experiments.Fig4.run_exn ~profiler params scheme);
  Format.printf "@.span breakdown of one quick Fig. 4 run:@.%a@."
    Engine.Span.pp_table profiler

let () =
  let open Cmdliner in
  let mode_arg =
    let doc =
      "Section to run: $(b,figures), $(b,scaling), $(b,conformance), \
       $(b,engine), $(b,profile), or $(b,all)."
    in
    Arg.(value & pos 0 string "all" & info [] ~docv:"MODE" ~doc)
  in
  let trials_arg =
    let doc =
      "Timed trials per engine benchmark (default 7; 5 with --quick)."
    in
    Arg.(
      value & opt (some Cliopts.pos_int) None & info [ "trials" ] ~docv:"N" ~doc)
  in
  let min_time_arg =
    let doc =
      "Minimum seconds per engine-benchmark trial (default 0.05; 0.02 with \
       --quick)."
    in
    Arg.(
      value
      & opt (some Cliopts.pos_float) None
      & info [ "min-time" ] ~docv:"SECONDS" ~doc)
  in
  let out_arg =
    let doc = "Where the engine mode writes its report." in
    Arg.(
      value & opt string "BENCH_engine.json" & info [ "out"; "o" ] ~docv:"FILE" ~doc)
  in
  let quick_arg =
    let doc =
      "CI-sized engine benchmarks: fewer, shorter trials (noisier — pair \
       with a generous `bench diff --threshold`)."
    in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let run mode trials min_time out quick =
    let trials =
      match trials with Some t -> t | None -> if quick then 5 else 7
    in
    let min_time_s =
      match min_time with Some x -> x | None -> if quick then 0.02 else 0.05
    in
    let bench_mode = if quick then "quick" else "full" in
    let engine () = run_engine ~trials ~min_time_s ~out ~mode:bench_mode () in
    (match mode with
    | "figures" -> run_figures ()
    | "scaling" -> run_scaling ()
    | "conformance" -> run_conformance ()
    | "engine" -> engine ()
    | "profile" -> run_profile ()
    | "all" ->
      run_figures ();
      run_scaling ();
      run_conformance ();
      engine ();
      run_profile ()
    | m ->
      Format.eprintf
        "unknown mode %S (expected figures|scaling|conformance|engine|profile|all)@."
        m;
      exit 2);
    Format.printf "@.bench: done@."
  in
  let doc = "QVISOR benchmark harness." in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "qvisor-bench" ~doc)
          Term.(
            const run $ mode_arg $ trials_arg $ min_time_arg $ out_arg
            $ quick_arg)))
