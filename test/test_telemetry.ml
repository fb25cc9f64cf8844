(* Tests for Engine.Telemetry: registry semantics (interning,
   accumulation, the disabled no-op registry), the snapshot JSON export,
   the sampled NDJSON trace sink (determinism under a fixed seed, line
   round-trips), an end-to-end check that an instrumented network +
   pre-processor populate the metric names the docs promise, and the
   allocation-free bucket histogram: moments bit for bit against Stats,
   quantiles against exact order statistics, exact merges, edge values. *)

module Tel = Engine.Telemetry

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Registry semantics                                                 *)
(* ------------------------------------------------------------------ *)

let test_counter_interning () =
  let tel = Tel.create () in
  let a = Tel.counter tel "x" in
  let b = Tel.counter tel "x" in
  Tel.Counter.incr a;
  Tel.Counter.add b 4;
  (* Same name, same accumulator: both handles see all five. *)
  Alcotest.(check int) "shared accumulator" 5 (Tel.Counter.value a);
  Alcotest.(check int) "other handle agrees" 5 (Tel.Counter.value b);
  let other = Tel.counter tel "y" in
  Alcotest.(check int) "distinct name is fresh" 0 (Tel.Counter.value other)

let test_gauge_and_histogram () =
  let tel = Tel.create () in
  let g = Tel.gauge tel "g" in
  Tel.Gauge.set g 1.5;
  Tel.Gauge.set g 2.5;
  check_float "gauge keeps last" 2.5 (Tel.Gauge.value g);
  let h = Tel.histogram tel "h" in
  Alcotest.(check bool) "empty mean nan" true (Float.is_nan (Tel.Histogram.mean h));
  List.iter (Tel.Histogram.observe h) [ 1.0; 2.0; 3.0 ];
  Alcotest.(check int) "count" 3 (Tel.Histogram.count h);
  check_float "mean" 2.0 (Tel.Histogram.mean h)

let test_disabled_registry () =
  let tel = Tel.disabled in
  Alcotest.(check bool) "disabled" false (Tel.is_enabled tel);
  let c = Tel.counter tel "x" in
  Tel.Counter.incr c;
  (* The handle works but is detached: a later lookup sees nothing. *)
  Alcotest.(check int) "fresh handle empty" 0
    (Tel.Counter.value (Tel.counter tel "x"));
  Tel.Gauge.set (Tel.gauge tel "g") 9.;
  Tel.Histogram.observe (Tel.histogram tel "h") 1.;
  (* Sinks refuse to attach; events are dropped silently. *)
  let path = Filename.temp_file "qvisor_tel" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Tel.attach_sink tel oc;
      Alcotest.(check bool) "not tracing" false (Tel.tracing tel);
      Tel.trace tel ~time:0. ~kind:Engine.Recorder.Enqueue ~uid:1 ~link:(-1)
        ~tenant:(-1) ~flow:(-1) ~rank_before:(-1) ~rank:(-1);
      Alcotest.(check int) "no events" 0 (Tel.events_seen tel);
      close_out oc);
  match Tel.snapshot tel with
  | Engine.Json.Obj fields ->
    List.iter
      (fun (name, v) ->
        match v with
        | Engine.Json.Obj [] -> ()
        | _ -> Alcotest.failf "disabled snapshot has content under %s" name)
      fields
  | _ -> Alcotest.fail "snapshot not an object"

let test_attach_sink_validates_sample () =
  let tel = Tel.create () in
  let raises f = try f (); false with Invalid_argument _ -> true in
  let path = Filename.temp_file "qvisor_tel" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Alcotest.(check bool) "negative rejected" true
        (raises (fun () -> Tel.attach_sink tel ~sample:(-0.1) oc));
      Alcotest.(check bool) "above one rejected" true
        (raises (fun () -> Tel.attach_sink tel ~sample:1.1 oc));
      Alcotest.(check bool) "nan rejected" true
        (raises (fun () -> Tel.attach_sink tel ~sample:nan oc));
      close_out oc)

(* ------------------------------------------------------------------ *)
(* Snapshot                                                           *)
(* ------------------------------------------------------------------ *)

let member path json =
  List.fold_left
    (fun acc name ->
      match Option.bind acc (Engine.Json.member name) with
      | Some v -> Some v
      | None -> Alcotest.failf "missing %s" (String.concat "." path))
    (Some json) path
  |> Option.get

let test_snapshot_round_trips () =
  let tel = Tel.create () in
  Tel.Counter.add (Tel.counter tel "c") 7;
  Tel.Gauge.set (Tel.gauge tel "g") 2.5;
  let h = Tel.histogram tel "h" in
  List.iter (Tel.Histogram.observe h) [ 1.0; 2.0; 3.0 ];
  ignore (Tel.histogram tel "h_empty");
  (* The snapshot must serialize (empty-histogram moments are NaN and the
     serializer rejects NaN, so they have to come out as null) and parse
     back to the same values. *)
  let text = Engine.Json.to_string ~pretty:true (Tel.snapshot tel) in
  match Engine.Json.of_string text with
  | Error e -> Alcotest.failf "snapshot does not re-parse: %s" e
  | Ok snap ->
    Alcotest.(check (option int)) "counter" (Some 7)
      (Engine.Json.to_int (member [ "counters"; "c" ] snap));
    Alcotest.(check (option int)) "hist count" (Some 3)
      (Engine.Json.to_int (member [ "histograms"; "h"; "count" ] snap));
    Alcotest.(check bool) "empty hist mean is null" true
      (member [ "histograms"; "h_empty"; "mean" ] snap = Engine.Json.Null)

(* ------------------------------------------------------------------ *)
(* Trace sink                                                         *)
(* ------------------------------------------------------------------ *)

(* Run [n] events into a fresh registry's sink and return the file's
   lines plus the (seen, written) counters. *)
let run_sink ?sample ?seed n =
  let path = Filename.temp_file "qvisor_tel" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let tel = Tel.create () in
      let oc = open_out path in
      Tel.attach_sink tel ?sample ?seed oc;
      for i = 0 to n - 1 do
        Tel.trace tel
          ~time:(float_of_int i *. 1e-3)
          ~kind:Engine.Recorder.Enqueue ~uid:(-1) ~link:(i mod 4)
          ~tenant:(i mod 2) ~flow:i ~rank_before:(-1) ~rank:(i * 3)
      done;
      let seen = Tel.events_seen tel in
      let written = Tel.events_written tel in
      Tel.detach_sink tel;
      close_out oc;
      let lines =
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      (lines, seen, written))

let test_sink_unsampled_writes_all () =
  let lines, seen, written = run_sink 50 in
  Alcotest.(check int) "seen" 50 seen;
  Alcotest.(check int) "written" 50 written;
  Alcotest.(check int) "lines" 50 (List.length lines)

let test_sink_sampling_deterministic () =
  let lines_a, seen_a, written_a = run_sink ~sample:0.3 ~seed:42 400 in
  let lines_b, _, written_b = run_sink ~sample:0.3 ~seed:42 400 in
  Alcotest.(check int) "seen all" 400 seen_a;
  Alcotest.(check bool) "sampling thins" true (written_a > 0 && written_a < 400);
  Alcotest.(check int) "same seed, same count" written_a written_b;
  Alcotest.(check (list string)) "same seed, same lines" lines_a lines_b;
  let lines_c, _, _ = run_sink ~sample:0.3 ~seed:43 400 in
  Alcotest.(check bool) "different seed differs" true (lines_a <> lines_c)

let test_sink_sample_zero () =
  let lines, seen, written = run_sink ~sample:0. 100 in
  Alcotest.(check int) "all offered" 100 seen;
  Alcotest.(check int) "none written" 0 written;
  Alcotest.(check int) "file empty" 0 (List.length lines)

let test_sink_ndjson_round_trip () =
  let lines, _, _ = run_sink 3 in
  List.iteri
    (fun i line ->
      match Engine.Json.of_string line with
      | Error e -> Alcotest.failf "line %d is not JSON: %s" i e
      | Ok v ->
        Alcotest.(check (option string)) "ev" (Some "enqueue")
          (Option.bind (Engine.Json.member "ev" v) Engine.Json.to_str);
        Alcotest.(check (option int)) "flow" (Some i)
          (Option.bind (Engine.Json.member "flow" v) Engine.Json.to_int);
        Alcotest.(check (option int)) "rank" (Some (i * 3))
          (Option.bind (Engine.Json.member "rank" v) Engine.Json.to_int);
        (* rank_before was not supplied: the field must be absent, not 0. *)
        Alcotest.(check bool) "absent field omitted" true
          (Engine.Json.member "rank_before" v = None))
    lines

(* ------------------------------------------------------------------ *)
(* End-to-end instrumentation                                         *)
(* ------------------------------------------------------------------ *)

let test_instrumented_net_counters () =
  let tel = Tel.create () in
  (* Two hosts, one switch, FIFO ports of capacity 1: 5-packet bursts
     force drops (cf. the netsim drop-counting test).  Tenant 40 grows
     the dense per-tenant table; -2 takes the path outside it. *)
  let topo = Netsim.Topology.create ~num_hosts:2 ~num_switches:1 in
  ignore (Netsim.Topology.add_duplex topo ~a:0 ~b:2 ~rate:1e9 ~delay:1e-6);
  ignore (Netsim.Topology.add_duplex topo ~a:1 ~b:2 ~rate:1e9 ~delay:1e-6);
  let routing = Netsim.Routing.compute topo in
  let sim = Engine.Sim.create () in
  let delivered = ref 0 in
  let net =
    Netsim.Net.create ~sim ~topo ~routing
      ~make_qdisc:(fun _ -> Sched.Fifo_queue.create ~capacity_pkts:1 ())
      ~telemetry:tel
      ~deliver:(fun _ -> incr delivered)
      ()
  in
  let tenants = [ 3; 40; -2 ] in
  for _ = 1 to 5 do
    List.iter
      (fun tenant ->
        Netsim.Net.inject net
          (Sched.Packet.make ~src:0 ~dst:1 ~tenant ~flow:1 ~size:1250 ()))
      tenants
  done;
  Engine.Sim.run sim;
  let v name = Tel.Counter.value (Tel.counter tel name) in
  let per_tenant what =
    List.fold_left
      (fun acc id -> acc + v (Printf.sprintf "net.tenant.%d.%s" id what))
      0 tenants
  in
  Alcotest.(check int) "drop counter matches qdiscs"
    (Netsim.Net.total_drops net) (v "net.drop");
  Alcotest.(check int) "per-tenant drops" (v "net.drop") (per_tenant "drop");
  Alcotest.(check int) "per-tenant enqueues" (v "net.enqueue")
    (per_tenant "enqueue");
  (* Everything drained, so offered = transmitted + dropped. *)
  Alcotest.(check int) "enq = deq + drop" (v "net.enqueue")
    (v "net.dequeue" + v "net.drop");
  List.iter
    (fun id ->
      let name what = Printf.sprintf "net.tenant.%d.%s" id what in
      Alcotest.(check int)
        (Printf.sprintf "tenant %d enq = deq + drop" id)
        (v (name "enqueue"))
        (v (name "dequeue") + v (name "drop")))
    tenants;
  let sojourn = Tel.histogram tel "net.sojourn_seconds" in
  Alcotest.(check int) "one sojourn per dequeue" (v "net.dequeue")
    (Tel.Histogram.count sojourn);
  let depth = Tel.histogram tel "net.queue_depth_pkts" in
  Alcotest.(check int) "one depth sample per enqueue" (v "net.enqueue")
    (Tel.Histogram.count depth);
  Alcotest.(check bool) "some events fired" true (Engine.Sim.events_fired sim > 0)

(* A full PIFO port either drops the arrival or evicts a queued packet;
   the trace must tell the two apart, as the flight recorder does. *)
let test_trace_labels_evictions () =
  let topo = Netsim.Topology.create ~num_hosts:2 ~num_switches:1 in
  ignore (Netsim.Topology.add_duplex topo ~a:0 ~b:2 ~rate:1e9 ~delay:1e-6);
  ignore (Netsim.Topology.add_duplex topo ~a:1 ~b:2 ~rate:1e9 ~delay:1e-6);
  let routing = Netsim.Routing.compute topo in
  let sim = Engine.Sim.create () in
  let path = Filename.temp_file "qvisor_tel" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let tel = Tel.create () in
      let oc = open_out path in
      Tel.attach_sink tel ~sample:1.0 oc;
      let net =
        Netsim.Net.create ~sim ~topo ~routing
          ~make_qdisc:(fun _ ->
            Sched.Bucket_queue.create ~rank_max:15 ~capacity_pkts:1 ())
          ~telemetry:tel
          ~deliver:(fun _ -> ())
          ()
      in
      let send rank =
        let p = Sched.Packet.make ~src:0 ~dst:1 ~rank ~flow:1 ~size:1250 () in
        Netsim.Net.inject net p;
        p.Sched.Packet.uid
      in
      (* The first packet goes straight onto the wire; the second fills
         the one-packet queue behind it. *)
      let _on_wire = send 5 in
      let queued = send 5 in
      let worse = send 9 in
      let _better = send 1 in
      Engine.Sim.run sim;
      Tel.detach_sink tel;
      close_out oc;
      match Engine.Lineage.load_file path with
      | Error e -> Alcotest.failf "trace does not load: %s" e
      | Ok events ->
        let losses =
          List.filter_map
            (fun (e : Engine.Recorder.event) ->
              match e.kind with
              | Drop | Evict -> Some (Engine.Recorder.kind_to_string e.kind, e.uid)
              | Enqueue | Dequeue | Preprocess -> None)
            events
        in
        Alcotest.(check (list (pair string int)))
          "worse arrival dropped, queued packet evicted"
          [ ("drop", worse); ("evict", queued) ]
          losses)

let test_instrumented_preprocessor () =
  let tel = Tel.create () in
  let tenants =
    [
      Qvisor.Tenant.make ~algorithm:"pfabric" ~rank_lo:0 ~rank_hi:1000 ~id:0
        ~name:"T1" ();
      Qvisor.Tenant.make ~algorithm:"edf" ~rank_lo:0 ~rank_hi:100 ~id:1
        ~name:"T2" ();
    ]
  in
  let plan =
    Qvisor.Synthesizer.synthesize_exn ~tenants
      ~policy:(Qvisor.Policy.parse_exn "T1 >> T2")
      ()
  in
  let pre = Qvisor.Preprocessor.of_plan ~telemetry:tel plan in
  for r = 0 to 9 do
    Qvisor.Preprocessor.process pre
      (Sched.Packet.make ~tenant:0 ~rank:(r * 100) ~flow:1 ~size:1500 ())
  done;
  (* An unknown tenant takes the fallback action. *)
  Qvisor.Preprocessor.process pre
    (Sched.Packet.make ~tenant:9 ~rank:5 ~flow:1 ~size:1500 ());
  let v name = Tel.Counter.value (Tel.counter tel name) in
  Alcotest.(check int) "table hits" 10 (v "preprocessor.table_hits");
  Alcotest.(check int) "fallback hits" 1 (v "preprocessor.fallback_hits");
  let err = Tel.histogram tel "preprocessor.rank_error" in
  Alcotest.(check int) "one error sample per packet" 11
    (Tel.Histogram.count err);
  Alcotest.(check bool) "error is finite and small" true
    (let m = Tel.Histogram.mean err in
     Float.is_finite m && m >= 0. && m < 100.)

(* ------------------------------------------------------------------ *)
(* Merge                                                              *)
(* ------------------------------------------------------------------ *)

let test_merge_combines_metrics () =
  let a = Tel.create () and b = Tel.create () in
  Tel.Counter.add (Tel.counter a "c") 2;
  Tel.Counter.add (Tel.counter b "c") 3;
  Tel.Counter.add (Tel.counter b "only_b") 1;
  Tel.Gauge.set (Tel.gauge a "g") 1.;
  Tel.Gauge.set (Tel.gauge b "g") 9.;
  List.iter (Tel.Histogram.observe (Tel.histogram a "h")) [ 1.; 2. ];
  List.iter (Tel.Histogram.observe (Tel.histogram b "h")) [ 3.; 4. ];
  Tel.merge_into ~into:a b;
  Alcotest.(check int) "counters add" 5 (Tel.Counter.value (Tel.counter a "c"));
  Alcotest.(check int) "src-only counter lands" 1
    (Tel.Counter.value (Tel.counter a "only_b"));
  check_float "gauge: src wins (serial order)" 9.
    (Tel.Gauge.value (Tel.gauge a "g"));
  let h = Tel.histogram a "h" in
  Alcotest.(check int) "histogram count" 4 (Tel.Histogram.count h);
  check_float "histogram mean" 2.5 (Tel.Histogram.mean h)

let test_merge_matches_serial () =
  (* Splitting a workload across two registries and merging in order must
     snapshot identically to one registry fed everything serially. *)
  let feed tel values =
    List.iter (Tel.Histogram.observe (Tel.histogram tel "lat")) values;
    List.iter (fun v -> Tel.Counter.add (Tel.counter tel "n") (int_of_float v)) values
  in
  let serial = Tel.create () in
  feed serial [ 1.; 2. ];
  feed serial [ 3.; 4. ];
  let p1 = Tel.create () and p2 = Tel.create () in
  feed p1 [ 1.; 2. ];
  feed p2 [ 3.; 4. ];
  let merged = Tel.create () in
  Tel.merge_into ~into:merged p1;
  Tel.merge_into ~into:merged p2;
  Alcotest.(check string) "snapshots identical"
    (Engine.Json.to_string (Tel.snapshot serial))
    (Engine.Json.to_string (Tel.snapshot merged))

let test_merge_disabled_noop () =
  let a = Tel.create () in
  Tel.Counter.add (Tel.counter a "c") 2;
  Tel.merge_into ~into:a Tel.disabled;
  Alcotest.(check int) "disabled src ignored" 2
    (Tel.Counter.value (Tel.counter a "c"));
  Tel.merge_into ~into:Tel.disabled a;
  Alcotest.(check int) "disabled into untouched" 0
    (Tel.Counter.value (Tel.counter Tel.disabled "c"))

(* ------------------------------------------------------------------ *)
(* Histogram vs Stats and exact order statistics                      *)
(* ------------------------------------------------------------------ *)

let same a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  || (Float.is_nan a && Float.is_nan b)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* The exact [ceil (q n)]-th smallest of the sorted [a], the order
   statistic [Histogram.quantile] estimates. *)
let order_stat a q =
  let n = Array.length a in
  a.(max 1 (int_of_float (Float.ceil (q *. float_of_int n))) - 1)

(* Half a 1/32-octave sub-bucket: the error bound the bucket width gives
   an order statistic in [2^-32, 2^32) (exact for zero). *)
let within_bucket ~exact est = Float.abs (est -. exact) <= Float.abs exact /. 64.

(* Streams of 0-3000 values assembled from runs: independent draws,
   duplicates from a three-value pool, constant runs, and ascending and
   descending runs, at magnitudes 1e-9 to 1e3. *)
let gen_stream =
  let open QCheck.Gen in
  let value =
    let* m = float_range 1. 10. in
    let* e = int_range (-9) 2 in
    return (m *. (10. ** float_of_int e))
  in
  let run =
    let* len = int_range 1 300 in
    let* a = value in
    let* b = value in
    let lo = Float.min a b and hi = Float.max a b in
    let ramp f =
      return (List.init len (fun i -> f (float_of_int i /. float_of_int len)))
    in
    oneof
      [
        list_repeat len value;
        (let* pool = list_repeat 3 value in
         list_repeat len (oneofl pool));
        return (List.init len (fun _ -> a));
        ramp (fun r -> lo +. ((hi -. lo) *. r));
        ramp (fun r -> hi -. ((hi -. lo) *. r));
      ]
  in
  let* short = bool in
  if short then list_size (int_range 0 12) value
  else
    let* runs = list_size (int_range 1 30) run in
    return (List.filteri (fun i _ -> i < 3000) (List.concat runs))

let arb_streams =
  QCheck.make
    ~print:(fun (xs, ys) ->
      Printf.sprintf "xs=[%s] ys=[%s]"
        (String.concat "; " (List.map (Printf.sprintf "%h") xs))
        (String.concat "; " (List.map (Printf.sprintf "%h") ys)))
    QCheck.Gen.(pair gen_stream gen_stream)

(* Moments bit for bit against [Stats] after every observation; at
   checkpoints (full, merged, merged then fed more) the whole snapshot:
   moments bit for bit, the three quantiles inside [min, max] and within
   the bucket bound of the exact order statistics. *)
let prop_histogram_matches_reference =
  QCheck.Test.make
    ~name:"histogram matches Stats and reference"
    ~count:200 arb_streams (fun (xs, ys) ->
      let live h s =
        Tel.Histogram.count h = Engine.Stats.count s
        && same (Tel.Histogram.mean h) (Engine.Stats.mean s)
        && same (Tel.Histogram.sum h) (Engine.Stats.sum s)
      in
      let snapshot tel =
        match Tel.snapshot tel with
        | Engine.Json.Obj fields -> (
          match List.assoc "histograms" fields with
          | Engine.Json.Obj [ ("h", Engine.Json.Obj h) ] ->
            List.map
              (function
                | _, Engine.Json.Number x -> x
                | _, Engine.Json.Null -> nan
                | k, _ -> Alcotest.failf "histogram field %s not a number" k)
              h
          | _ -> Alcotest.fail "expected one histogram")
        | _ -> Alcotest.fail "snapshot not an object"
      in
      let settled tel s seen =
        let seen = sorted seen in
        match snapshot tel with
        | [ count; mean; mn; mx; sum; p50; p90; p99 ] ->
          List.for_all2 same [ count; mean; mn; mx; sum ]
            [
              float_of_int (Engine.Stats.count s);
              Engine.Stats.mean s;
              Engine.Stats.min s;
              Engine.Stats.max s;
              Engine.Stats.sum s;
            ]
          && List.for_all2
               (fun q est ->
                 if seen = [||] then Float.is_nan est
                 else
                   mn <= est && est <= mx
                   && within_bucket ~exact:(order_stat seen q) est)
               [ 0.5; 0.9; 0.99 ] [ p50; p90; p99 ]
        | _ -> Alcotest.fail "histogram snapshot has eight fields"
      in
      let feed h s vals =
        List.for_all
          (fun x ->
            Tel.Histogram.observe h x;
            Engine.Stats.add s x;
            live h s)
          vals
      in
      let filled vals =
        let tel = Tel.create () and s = Engine.Stats.create ~keep_samples:false () in
        let h = Tel.histogram tel "h" in
        let ok = feed h s vals in
        (tel, h, s, vals, ok && settled tel s vals)
      in
      let src, _, src_s, _, ok = filled xs in
      let merged (into, h, s, vals, ok) =
        ok
        && begin
             Tel.merge_into ~into src;
             Engine.Stats.merge_into ~into:s src_s;
             settled into s (vals @ xs)
           end
        && feed h s ys
        && settled into s (vals @ xs @ ys)
      in
      ok && merged (filled []) && merged (filled ys))

(* Four streams at 100k observations each; every estimate within the
   bucket bound of the exact order statistic, the extremes exact. *)
let test_histogram_accuracy () =
  let n = 100_000 in
  let rng = Engine.Rng.create ~seed:2024 in
  let streams =
    [
      ( "log-uniform",
        List.init n (fun _ -> Float.pow 2. ((40. *. Engine.Rng.float rng) -. 20.))
      );
      ("exp(1)", List.init n (fun _ -> Engine.Rng.exponential rng ~mean:1.));
      ("1..1000", List.init n (fun i -> float_of_int (1 + (i mod 1000))));
      ( "half zeros",
        List.init n (fun i -> if i land 1 = 0 then 0. else Engine.Rng.float rng)
      );
    ]
  in
  List.iter
    (fun (name, xs) ->
      let h = Tel.histogram (Tel.create ()) "h" in
      List.iter (Tel.Histogram.observe h) xs;
      let a = sorted xs in
      List.iter
        (fun q ->
          let exact = order_stat a q and est = Tel.Histogram.quantile h q in
          Alcotest.(check bool)
            (Printf.sprintf "%s q=%g: %.17g vs exact %.17g" name q est exact)
            true (within_bucket ~exact est))
        [ 0.25; 0.5; 0.9; 0.99; 0.999 ];
      check_float (name ^ " q=0 is min") a.(0) (Tel.Histogram.quantile h 0.);
      check_float (name ^ " q=1 is max")
        a.(Array.length a - 1)
        (Tel.Histogram.quantile h 1.))
    streams

(* One stream split four ways (each part a different distribution, so the
   parts' buckets differ), merged in every order and as a tree: each
   result has the one-registry histogram's count and quantiles bit for
   bit, and its mean and sum up to rounding. *)
let test_histogram_exact_merge () =
  let rng = Engine.Rng.create ~seed:7 in
  let parts =
    [
      List.init 3000 (fun _ -> Engine.Rng.exponential rng ~mean:1e-3);
      List.init 2000 (fun i -> float_of_int (i mod 97));
      List.init 1000 (fun _ -> Float.pow 10. (Engine.Rng.float_range rng ~lo:(-6.) ~hi:6.));
      List.init 500 (fun _ -> 0.);
    ]
  in
  let registry xs =
    let tel = Tel.create () in
    List.iter (Tel.Histogram.observe (Tel.histogram tel "h")) xs;
    tel
  in
  let whole = Tel.histogram (registry (List.concat parts)) "h" in
  let qs = List.init 101 (fun i -> float_of_int i /. 100.) @ [ 0.999; 0.9999 ] in
  let check_against label tel =
    let h = Tel.histogram tel "h" in
    Alcotest.(check int) (label ^ ": count") (Tel.Histogram.count whole)
      (Tel.Histogram.count h);
    List.iter
      (fun q ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: q=%g bit for bit" label q)
          true
          (same (Tel.Histogram.quantile whole q) (Tel.Histogram.quantile h q)))
      qs;
    let close a b = Float.abs (a -. b) <= 1e-12 *. Float.abs a in
    Alcotest.(check bool) (label ^ ": mean") true
      (close (Tel.Histogram.mean whole) (Tel.Histogram.mean h));
    Alcotest.(check bool) (label ^ ": sum") true
      (close (Tel.Histogram.sum whole) (Tel.Histogram.sum h))
  in
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x ->
          List.map (List.cons x) (permutations (List.filter (( <> ) x) l)))
        l
  in
  List.iteri
    (fun k order ->
      let into = Tel.create () in
      List.iter (fun i -> Tel.merge_into ~into (registry (List.nth parts i))) order;
      check_against (Printf.sprintf "order %d" k) into)
    (permutations [ 0; 1; 2; 3 ]);
  let pair a b =
    let into = registry (List.nth parts a) in
    Tel.merge_into ~into (registry (List.nth parts b));
    into
  in
  let tree = pair 3 1 in
  Tel.merge_into ~into:tree (pair 2 0);
  check_against "tree" tree;
  (* An empty source, or a source without the histogram, changes
     nothing. *)
  let empty = Tel.create () in
  ignore (Tel.histogram empty "h");
  Tel.merge_into ~into:tree empty;
  Tel.merge_into ~into:tree (Tel.create ());
  check_against "empty sources" tree

(* Where telemetry.mli says each kind of value lands, read back through
   [quantile] (bucket values are clamped to the observed range). *)
let test_histogram_edge_values () =
  let of_list xs =
    let h = Tel.histogram (Tel.create ()) "h" in
    List.iter (Tel.Histogram.observe h) xs;
    h
  in
  let q = Tel.Histogram.quantile in
  let empty = of_list [] in
  Alcotest.(check bool) "empty reads nan" true (Float.is_nan (q empty 0.5));
  (* Zero, negatives and -inf share the zero bucket, which reads 0. *)
  let h = of_list [ 0.; -0.; 4.; 8. ] in
  check_float "zeros read 0" 0. (q h 0.5);
  let h = of_list [ -3.; neg_infinity; 1.; 2.; 4. ] in
  check_float "negatives read 0" 0. (q h 0.4);
  check_float "q=0 is the true min" neg_infinity (q h 0.);
  (* All negative: the zero bucket's 0 is clamped to the max. *)
  check_float "clamped to max" (-1.) (q (of_list [ -5.; -1. ]) 0.5);
  (* Subnormals and other positives below 2^-32: the underflow bucket,
     which reads 2^-33. *)
  let h = of_list [ 5e-324; Float.ldexp 1. (-40); 1.; 2. ] in
  check_float "underflow reads 2^-33" (Float.ldexp 1. (-33)) (q h 0.5);
  (* 2^32 and above, +inf: the overflow bucket, which reads as the max. *)
  let h = of_list [ 1.; Float.ldexp 1. 32; 1e300 ] in
  check_float "overflow reads max" 1e300 (q h 0.9);
  let h = of_list [ 1.; 2.; infinity ] in
  check_float "+inf reads max" infinity (q h 0.9);
  (* nan: counted, poisons the mean, lands in the overflow bucket (a rank
     it holds reads as the max) and leaves the lower ranks alone. *)
  let h = of_list [ -1.; 3.; nan ] in
  Alcotest.(check int) "nan counted" 3 (Tel.Histogram.count h);
  Alcotest.(check bool) "nan mean" true (Float.is_nan (Tel.Histogram.mean h));
  check_float "rank below nan" 3. (q h 0.5);
  check_float "nan's rank reads max" 3. (q h 0.9);
  (* In range: a power of two opens its bucket, whose midpoint is within
     1/64 of it. *)
  let h = of_list [ 0.5; 1.; 1.; 1.; 1.5 ] in
  check_float "midpoint of [1, 1+1/32)" (1. +. (1. /. 64.)) (q h 0.5);
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "q=%g rejected" bad)
        true
        (try
           ignore (q h bad);
           false
         with Invalid_argument _ -> true))
    [ -0.1; 1.1; nan ]

let test_instruments_allocation_free () =
  (* Pre-boxed inputs, so only the callee's own allocation is counted;
     the values reach every bucket kind. *)
  let xs =
    Array.init 1024 (fun i ->
        ref
          (match i mod 8 with
          | 0 -> 0.
          | 1 -> -1.
          | 2 -> 1e-300
          | 3 -> 1e300
          | _ -> float_of_int ((i * 7919) mod 1024) *. 1e-6))
  in
  let h = Tel.histogram (Tel.create ()) "h" in
  let words f =
    let before = Gc.minor_words () in
    for i = 1 to 10_000 do
      f !(xs.(i land 1023))
    done;
    Gc.minor_words () -. before
  in
  check_float "Histogram.observe words" 0. (words (Tel.Histogram.observe h))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "counter interning" `Quick test_counter_interning;
          Alcotest.test_case "gauge+histogram" `Quick test_gauge_and_histogram;
          Alcotest.test_case "disabled registry" `Quick test_disabled_registry;
          Alcotest.test_case "sample validation" `Quick
            test_attach_sink_validates_sample;
        ] );
      ( "snapshot",
        [ Alcotest.test_case "round trips" `Quick test_snapshot_round_trips ] );
      ( "merge",
        [
          Alcotest.test_case "combines metrics" `Quick
            test_merge_combines_metrics;
          Alcotest.test_case "matches serial" `Quick test_merge_matches_serial;
          Alcotest.test_case "disabled no-op" `Quick test_merge_disabled_noop;
        ] );
      ( "trace_sink",
        [
          Alcotest.test_case "unsampled writes all" `Quick
            test_sink_unsampled_writes_all;
          Alcotest.test_case "sampling deterministic" `Quick
            test_sink_sampling_deterministic;
          Alcotest.test_case "sample zero" `Quick test_sink_sample_zero;
          Alcotest.test_case "ndjson round trip" `Quick
            test_sink_ndjson_round_trip;
        ] );
      ( "integration",
        [
          Alcotest.test_case "instrumented net" `Quick
            test_instrumented_net_counters;
          Alcotest.test_case "trace labels evictions" `Quick
            test_trace_labels_evictions;
          Alcotest.test_case "instrumented preprocessor" `Quick
            test_instrumented_preprocessor;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "accuracy" `Quick test_histogram_accuracy;
          Alcotest.test_case "exact merge" `Quick test_histogram_exact_merge;
          Alcotest.test_case "edge values" `Quick test_histogram_edge_values;
        ] );
      ( "reference",
        [
          qc prop_histogram_matches_reference;
          Alcotest.test_case "allocation free" `Quick
            test_instruments_allocation_free;
        ] );
    ]
