(* Tests for Engine.Telemetry: registry semantics (interning,
   accumulation, the disabled no-op registry), the snapshot JSON export,
   the sampled NDJSON trace sink (determinism under a fixed seed, line
   round-trips), an end-to-end check that an instrumented network +
   pre-processor populate the metric names the docs promise, and the
   allocation-free P² sketch and histogram checked bit for bit against
   the reference implementation. *)

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
(* Flat instruments vs the reference implementation                   *)
(* ------------------------------------------------------------------ *)

(* [P2_oracle] is the original boxed-float P² sketch, kept verbatim as
   the reference: the flat, allocation-free rewrite and the histogram
   built on it must agree with it, and with [Stats], to the last bit. *)

let same a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  || (Float.is_nan a && Float.is_nan b)

(* Streams of 0-3000 values assembled from runs that stress the marker
   logic: independent draws, duplicates from a three-value pool, constant
   runs, and ascending and descending runs, at magnitudes 1e-9 to 1e3. *)
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
    ~print:(fun (q, xs, ys) ->
      Printf.sprintf "q=%g xs=[%s] ys=[%s]" q
        (String.concat "; " (List.map (Printf.sprintf "%h") xs))
        (String.concat "; " (List.map (Printf.sprintf "%h") ys)))
    QCheck.Gen.(triple (oneofl [ 0.25; 0.5; 0.9; 0.99 ]) gen_stream gen_stream)

let prop_p2_matches_reference =
  QCheck.Test.make ~name:"p2 matches reference bit for bit" ~count:200
    arb_streams (fun (q, xs, ys) ->
      let module P = Engine.P2_quantile in
      let agree a o =
        P.count a = P2_oracle.count o
        && same (P.estimate a) (P2_oracle.estimate o)
      in
      let feed a o x =
        P.add a x;
        P2_oracle.add o x;
        agree a o
      in
      let a = P.create ~q and o = P2_oracle.create ~q in
      (* After a merge, more observations must still agree: every marker
         height and position is then equal, not only the estimate. *)
      let merged into into_o =
        P.merge_into ~into a;
        P2_oracle.merge_into ~into:into_o o;
        agree into into_o && List.for_all (feed into into_o) ys
      in
      List.for_all (feed a o) xs
      && merged (P.create ~q) (P2_oracle.create ~q)
      &&
      let b = P.create ~q and b_o = P2_oracle.create ~q in
      List.for_all (feed b b_o) ys && merged b b_o)

let prop_histogram_matches_reference =
  QCheck.Test.make
    ~name:"histogram matches Stats and reference"
    ~count:200 arb_streams (fun (_, xs, ys) ->
      let qs = [ 0.5; 0.9; 0.99 ] in
      let reference () =
        ( Engine.Stats.create ~keep_samples:false (),
          List.map (fun q -> P2_oracle.create ~q) qs )
      in
      let ref_observe (s, sketches) x =
        Engine.Stats.add s x;
        List.iter (fun o -> P2_oracle.add o x) sketches
      in
      let ref_merge ~into:(s, sketches) (src, src_sketches) =
        Engine.Stats.merge_into ~into:s src;
        List.iter2
          (fun into o -> P2_oracle.merge_into ~into o)
          sketches src_sketches
      in
      (* Per observation: everything the histogram's accessors expose. *)
      let live h (s, sketches) =
        Tel.Histogram.count h = Engine.Stats.count s
        && same (Tel.Histogram.mean h) (Engine.Stats.mean s)
        && same (Tel.Histogram.sum h) (Engine.Stats.sum s)
        && List.for_all2
             (fun q o -> same (Tel.Histogram.quantile h q) (P2_oracle.estimate o))
             qs sketches
      in
      (* At checkpoints: the snapshot, which adds min and max. *)
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
      let settled tel (s, sketches) =
        let expected =
          [
            float_of_int (Engine.Stats.count s);
            Engine.Stats.mean s;
            Engine.Stats.min s;
            Engine.Stats.max s;
            Engine.Stats.sum s;
          ]
          @ List.map P2_oracle.estimate sketches
        in
        List.for_all2 same (snapshot tel) expected
      in
      let filled vals =
        let tel = Tel.create () and r = reference () in
        let h = Tel.histogram tel "h" in
        let ok =
          List.for_all
            (fun x ->
              Tel.Histogram.observe h x;
              ref_observe r x;
              live h r)
            vals
        in
        (tel, h, r, ok && settled tel r)
      in
      let src, _, src_r, ok = filled xs in
      let merged (into, h, r, ok) =
        ok
        && begin
             Tel.merge_into ~into src;
             ref_merge ~into:r src_r;
             settled into r
           end
        && List.for_all
             (fun x ->
               Tel.Histogram.observe h x;
               ref_observe r x;
               live h r)
             ys
        && settled into r
      in
      ok && merged (filled []) && merged (filled ys))

let test_instruments_allocation_free () =
  (* Pre-boxed inputs, so only the callee's own allocation is counted. *)
  let xs = Array.init 1024 (fun i -> ref (float_of_int ((i * 7919) mod 1024) *. 1e-6)) in
  let sketch = Engine.P2_quantile.create ~q:0.99 in
  let h = Tel.histogram (Tel.create ()) "h" in
  (* Past the one-off sort of the first five samples. *)
  for i = 0 to 4 do
    Engine.P2_quantile.add sketch !(xs.(i));
    Tel.Histogram.observe h !(xs.(i))
  done;
  let words f =
    let before = Gc.minor_words () in
    for i = 1 to 10_000 do
      f !(xs.(i land 1023))
    done;
    Gc.minor_words () -. before
  in
  check_float "P2_quantile.add words" 0. (words (Engine.P2_quantile.add sketch));
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
      ( "reference",
        [
          qc prop_p2_matches_reference;
          qc prop_histogram_matches_reference;
          Alcotest.test_case "allocation free" `Quick
            test_instruments_allocation_free;
        ] );
    ]
