(* Tests for the forensics layer: Engine.Recorder (ring semantics, the
   drop-rate anomaly trigger and its hysteresis), Engine.Span (nesting,
   exception safety, balanced Chrome export, worker-count-independent
   merge structure), Engine.Lineage (the NDJSON join behind
   `qvisor-cli trace query`, against a golden fixture), and the
   Telemetry satellites (Histogram.quantile, sink replacement flush). *)

module Rec = Engine.Recorder
module Span = Engine.Span
module Lin = Engine.Lineage
module Tel = Engine.Telemetry

let with_temp_file ?(suffix = ".ndjson") f =
  let path = Filename.temp_file "qvisor_forensics" suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Recorder ring                                                      *)
(* ------------------------------------------------------------------ *)

let record_simple r i =
  Rec.record r ~time:(float_of_int i) ~kind:Rec.Enqueue ~uid:i ~link:1
    ~tenant:0 ~flow:2 ~rank_before:(-1) ~rank:(10 * i)

let test_ring_wraparound () =
  let r = Rec.create ~capacity:4 () in
  for i = 0 to 9 do
    record_simple r i
  done;
  Alcotest.(check int) "seen counts overwritten" 10 (Rec.seen r);
  Alcotest.(check int) "length capped" 4 (Rec.length r);
  Alcotest.(check (list int))
    "last four, oldest first"
    [ 6; 7; 8; 9 ]
    (List.map (fun (e : Rec.event) -> e.Rec.uid) (Rec.to_list r));
  let newest = List.nth (Rec.to_list r) 3 in
  Alcotest.(check int) "fields survive the ring" 90 newest.Rec.rank

let test_ring_capacity_one () =
  let r = Rec.create ~capacity:1 () in
  Alcotest.(check (list int)) "starts empty" []
    (List.map (fun (e : Rec.event) -> e.Rec.uid) (Rec.to_list r));
  record_simple r 1;
  record_simple r 2;
  Alcotest.(check (list int))
    "holds only the newest" [ 2 ]
    (List.map (fun (e : Rec.event) -> e.Rec.uid) (Rec.to_list r));
  Alcotest.(check int) "seen still counts" 2 (Rec.seen r);
  Rec.clear r;
  Alcotest.(check int) "clear empties" 0 (Rec.length r);
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "capacity 0 rejected" true
    (raises (fun () -> ignore (Rec.create ~capacity:0 ())))

let test_ring_disabled () =
  Alcotest.(check bool) "disabled" false (Rec.is_enabled Rec.disabled);
  record_simple Rec.disabled 7;
  Alcotest.(check int) "record is a no-op" 0 (Rec.seen Rec.disabled);
  Alcotest.(check int) "capacity 0" 0 (Rec.capacity Rec.disabled)

let kind_names events =
  List.map (fun (e : Rec.event) -> Rec.kind_to_string e.Rec.kind) events

let test_dump_lineage_roundtrip () =
  let r = Rec.create ~capacity:8 () in
  Rec.record r ~time:1.5 ~kind:Rec.Preprocess ~uid:3 ~link:0 ~tenant:1
    ~flow:1 ~rank_before:17 ~rank:42;
  Rec.record r ~time:1.5 ~kind:Rec.Enqueue ~uid:3 ~link:0 ~tenant:1 ~flow:1
    ~rank_before:(-1) ~rank:42;
  Rec.record r ~time:1.75 ~kind:Rec.Evict ~uid:3 ~link:0 ~tenant:1 ~flow:1
    ~rank_before:(-1) ~rank:42;
  Rec.record r ~time:2.0 ~kind:Rec.Dequeue ~uid:4 ~link:0 ~tenant:0 ~flow:2
    ~rank_before:(-1) ~rank:7;
  Rec.record r ~time:2.25 ~kind:Rec.Drop ~uid:3 ~link:0 ~tenant:1 ~flow:1
    ~rank_before:(-1) ~rank:(-1);
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s row survives the codec"
           (Rec.kind_to_string e.Rec.kind))
        true
        (Rec.event_of_json (Rec.event_to_json e) = Ok e))
    (Rec.to_list r);
  with_temp_file (fun path ->
      let oc = open_out path in
      Rec.dump r oc;
      close_out oc;
      match Lin.load_file path with
      | Error e -> Alcotest.failf "load_file: %s" e
      | Ok events ->
        Alcotest.(check bool) "the file holds the ring" true
          (events = Rec.to_list r);
        Alcotest.(check (list string))
          "stages in dump order"
          [ "preprocess"; "enqueue"; "evict"; "dequeue"; "drop" ]
          (kind_names events);
        let pre = List.hd events in
        Alcotest.(check int) "rank_before kept" 17 pre.Rec.rank_before;
        let drop = List.nth events 4 in
        Alcotest.(check int) "negative fields read back as -1" (-1)
          drop.Rec.rank;
        Alcotest.(check int) "uid kept" 3 drop.Rec.uid)

(* ------------------------------------------------------------------ *)
(* Anomaly trigger                                                    *)
(* ------------------------------------------------------------------ *)

let test_trigger_needs_full_window () =
  let tr = Rec.Trigger.create ~window:4 ~threshold:0.5 () in
  (* Three straight drops exceed the ratio but the window isn't full. *)
  Alcotest.(check bool) "1st drop silent" false
    (Rec.Trigger.observe tr ~dropped:true);
  Alcotest.(check bool) "2nd drop silent" false
    (Rec.Trigger.observe tr ~dropped:true);
  Alcotest.(check bool) "3rd drop silent" false
    (Rec.Trigger.observe tr ~dropped:true);
  Alcotest.(check bool) "4th observation fires" true
    (Rec.Trigger.observe tr ~dropped:false);
  Alcotest.(check int) "fired once" 1 (Rec.Trigger.fired tr)

let test_trigger_hysteresis_no_storm () =
  let window = 4 and cooldown = 8 in
  let tr = Rec.Trigger.create ~window ~threshold:0.5 ~cooldown () in
  (* A sustained 100%-drop incident: without hysteresis this would fire
     on every observation once the window fills. *)
  let fires = ref [] in
  for i = 1 to 100 do
    if Rec.Trigger.observe tr ~dropped:true then fires := i :: !fires
  done;
  let fires = List.rev !fires in
  Alcotest.(check int) "first fire when the window fills" window
    (List.hd fires);
  let rec gaps = function
    | a :: (b :: _ as rest) -> (b - a) :: gaps rest
    | _ -> []
  in
  List.iter
    (fun gap ->
      Alcotest.(check bool)
        (Printf.sprintf "gap %d respects cooldown" gap)
        true
        (gap > cooldown))
    (gaps fires);
  Alcotest.(check int) "one fire per cooldown period, not a storm"
    (1 + ((100 - window) / (cooldown + 1)))
    (List.length fires);
  Alcotest.(check int) "fired matches" (List.length fires)
    (Rec.Trigger.fired tr)

let test_trigger_recovers () =
  let tr = Rec.Trigger.create ~window:4 ~threshold:0.5 ~cooldown:0 () in
  for _ = 1 to 4 do
    ignore (Rec.Trigger.observe tr ~dropped:true)
  done;
  (* Healthy traffic slides the drops out of the window. *)
  let refires = ref 0 in
  for _ = 1 to 10 do
    if Rec.Trigger.observe tr ~dropped:false then incr refires
  done;
  (* The first healthy observations still see >= 2 drops in-window, so a
     couple of fires are legitimate; after the window turns over the
     trigger must go quiet. *)
  let late = ref 0 in
  for _ = 1 to 20 do
    if Rec.Trigger.observe tr ~dropped:false then incr late
  done;
  Alcotest.(check int) "quiet once the window is clean" 0 !late

let test_trigger_force_and_validation () =
  let tr = Rec.Trigger.create ~window:4 ~cooldown:3 () in
  Alcotest.(check bool) "force fires" true (Rec.Trigger.force tr);
  Alcotest.(check bool) "force respects cooldown" false
    (Rec.Trigger.force tr);
  for _ = 1 to 3 do
    ignore (Rec.Trigger.observe tr ~dropped:false)
  done;
  Alcotest.(check bool) "force rearms after cooldown" true
    (Rec.Trigger.force tr);
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "window < 1" true
    (raises (fun () -> ignore (Rec.Trigger.create ~window:0 ())));
  Alcotest.(check bool) "threshold 0" true
    (raises (fun () -> ignore (Rec.Trigger.create ~threshold:0. ())));
  Alcotest.(check bool) "threshold > 1" true
    (raises (fun () -> ignore (Rec.Trigger.create ~threshold:1.5 ())));
  Alcotest.(check bool) "cooldown < 0" true
    (raises (fun () -> ignore (Rec.Trigger.create ~cooldown:(-1) ())))

(* ------------------------------------------------------------------ *)
(* Span profiler                                                      *)
(* ------------------------------------------------------------------ *)

let structure profiler =
  List.map (fun (t : Span.total) -> (t.Span.name, t.Span.count))
    (Span.totals profiler)

let test_span_nesting_totals () =
  let p = Span.create () in
  Span.with_ p ~name:"outer" (fun () ->
      Span.with_ p ~name:"inner" (fun () -> ());
      Span.with_ p ~name:"inner" (fun () -> ()));
  Alcotest.(check int) "three closed spans" 3 (Span.span_count p);
  Alcotest.(check (list (pair string int)))
    "totals sorted by name with counts"
    [ ("inner", 2); ("outer", 1) ]
    (structure p);
  let find name =
    List.find (fun (t : Span.total) -> t.Span.name = name) (Span.totals p)
  in
  let outer = find "outer" and inner = find "inner" in
  Alcotest.(check bool) "child time within parent" true
    (inner.Span.total_s <= outer.Span.total_s +. 1e-6);
  Alcotest.(check bool) "parent self excludes children" true
    (outer.Span.self_s <= outer.Span.total_s -. inner.Span.total_s +. 1e-6)

let test_span_exception_safety () =
  let p = Span.create () in
  (try Span.with_ p ~name:"boom" (fun () -> failwith "x") with
  | Failure _ -> ());
  Alcotest.(check int) "span closed despite raise" 1 (Span.span_count p);
  Alcotest.(check int) "balanced entries" 2 (List.length (Span.entries p))

let test_span_chrome_balanced () =
  let p = Span.create () in
  Span.with_ p ~name:"a" (fun () -> Span.with_ p ~name:"b" (fun () -> ()));
  match Span.to_chrome_json p with
  | Engine.Json.Obj fields ->
    Alcotest.(check bool) "has displayTimeUnit" true
      (List.mem_assoc "displayTimeUnit" fields);
    (match List.assoc "traceEvents" fields with
    | Engine.Json.List events ->
      let phase ev =
        match ev with
        | Engine.Json.Obj f -> (
          match List.assoc "ph" f with
          | Engine.Json.String s -> s
          | _ -> Alcotest.fail "ph not a string")
        | _ -> Alcotest.fail "event not an object"
      in
      let phases = List.map phase events in
      let count p = List.length (List.filter (String.equal p) phases) in
      Alcotest.(check int) "one B per span" 2 (count "B");
      Alcotest.(check int) "one E per span" 2 (count "E")
    | _ -> Alcotest.fail "traceEvents not a list")
  | _ -> Alcotest.fail "chrome export not an object"

let test_span_disabled_passthrough () =
  Alcotest.(check int) "result passes through" 41
    (Span.with_ Span.disabled ~name:"x" (fun () -> 41));
  Alcotest.(check int) "nothing recorded" 0 (Span.span_count Span.disabled)

let test_span_merge_jobs_invariant () =
  (* The same conformance workload profiled at 1 and 4 workers must
     produce the same merged span structure (names and counts); only the
     measured durations may differ. *)
  let profile jobs =
    let profiler = Span.create () in
    ignore
      (Conformance.Differential.run_cases ~jobs ~profiler ~seed:11 ~cases:6
         ());
    structure profiler
  in
  let s1 = profile 1 and s4 = profile 4 in
  Alcotest.(check (list (pair string int))) "structure jobs 1 = jobs 4" s1 s4;
  Alcotest.(check bool) "profile is non-trivial" true (List.length s1 >= 2)

(* ------------------------------------------------------------------ *)
(* Lineage queries (golden fixture)                                   *)
(* ------------------------------------------------------------------ *)

(* Hand-written in the shared NDJSON schema: two packets interleaved in
   time, plus one uid-less line (a telemetry event with sampling off for
   ids).  Matches what a Telemetry trace sink or Recorder dump emits. *)
let golden_ndjson =
  {|{"t":0.000135,"ev":"preprocess","uid":12,"link":4,"tenant":3,"flow":5,"rank_before":17,"rank":42}
{"t":0.000135,"ev":"enqueue","uid":12,"link":4,"tenant":3,"flow":5,"rank":42}
{"t":0.000140,"ev":"enqueue","uid":13,"link":4,"tenant":0,"flow":9,"rank":7}
{"t":0.000200,"ev":"dequeue","uid":13,"link":4,"tenant":0,"flow":9,"rank":7}

{"t":0.000481,"ev":"dequeue","uid":12,"link":4,"tenant":3,"flow":5,"rank":42}
{"t":0.000500,"ev":"drop"}
|}

let load_golden () =
  with_temp_file (fun path ->
      let oc = open_out path in
      output_string oc golden_ndjson;
      close_out oc;
      match Lin.load_file path with
      | Ok events -> events
      | Error e -> Alcotest.failf "golden fixture rejected: %s" e)

let test_lineage_golden_load () =
  let events = load_golden () in
  Alcotest.(check int) "blank line skipped, six events" 6
    (List.length events);
  let uids = List.map (fun (e : Rec.event) -> e.Rec.uid) events in
  Alcotest.(check (list int)) "file order kept" [ 12; 12; 13; 13; 12; -1 ] uids

let test_lineage_query_uid () =
  let events = load_golden () in
  let journey = Lin.lineage ~uid:12 events in
  Alcotest.(check (list string))
    "stage-by-stage journey"
    [ "preprocess"; "enqueue"; "dequeue" ]
    (kind_names journey);
  (* Same-timestamp stages keep recorded order: preprocess first. *)
  let first = List.hd journey in
  Alcotest.(check int) "rank journey start" 17 first.Rec.rank_before;
  Alcotest.(check int) "rank journey end" 42 first.Rec.rank

let test_lineage_grouping_and_filters () =
  let events = load_golden () in
  let all = Lin.lineage events in
  (* Grouped by uid (12 then 13 by first appearance), uid-less last. *)
  let uids = List.map (fun (e : Rec.event) -> e.Rec.uid) all in
  Alcotest.(check (list int))
    "per-packet grouping, uid-less last"
    [ 12; 12; 12; 13; 13; -1 ]
    uids;
  Alcotest.(check int) "tenant filter" 3
    (List.length (Lin.lineage ~tenant:3 events));
  Alcotest.(check int) "flow+uid conjunction" 0
    (List.length (Lin.lineage ~uid:12 ~flow:9 events));
  (* The uid-less drop has no tenant: it must not match a tenant query. *)
  Alcotest.(check bool) "missing field does not match" false
    (Lin.matches ~tenant:3 (List.nth events 5))

let test_lineage_rejects_malformed () =
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  (* Not JSON, and JSON whose "ev" names no packet-event kind. *)
  List.iter
    (fun bad ->
      with_temp_file (fun path ->
          let oc = open_out path in
          output_string oc ("{\"t\":1.0,\"ev\":\"enqueue\"}\n" ^ bad ^ "\n");
          close_out oc;
          match Lin.load_file path with
          | Ok _ -> Alcotest.failf "malformed line accepted: %s" bad
          | Error e ->
            Alcotest.(check bool)
              (Printf.sprintf "error names line 2: %s" e)
              true (contains e "line 2")))
    [ "not json"; {|{"t":1,"ev":"guard"}|} ]

(* ------------------------------------------------------------------ *)
(* Telemetry satellites                                               *)
(* ------------------------------------------------------------------ *)

let test_histogram_quantile () =
  let tel = Tel.create () in
  let h = Tel.histogram tel "h" in
  for i = 1 to 1000 do
    Tel.Histogram.observe h (float_of_int i)
  done;
  let near q lo hi =
    let v = Tel.Histogram.quantile h q in
    Alcotest.(check bool)
      (Printf.sprintf "p%.0f=%.1f in [%.0f, %.0f]" (100. *. q) v lo hi)
      true
      (v >= lo && v <= hi)
  in
  (* P-squared sketches are approximate; the bands are generous. *)
  near 0.5 450. 550.;
  near 0.9 850. 950.;
  near 0.99 950. 1000.;
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "unsupported quantile rejected" true
    (raises (fun () -> ignore (Tel.Histogram.quantile h 0.25)))

let test_attach_sink_replacement_flushes () =
  with_temp_file (fun path1 ->
      with_temp_file (fun path2 ->
          let tel = Tel.create () in
          let oc1 = open_out path1 and oc2 = open_out path2 in
          Tel.attach_sink tel oc1;
          Tel.trace tel ~time:1.0 ~kind:Rec.Enqueue ~uid:1 ~link:(-1)
            ~tenant:(-1) ~flow:(-1) ~rank_before:(-1) ~rank:(-1);
          (* Replacing the sink must flush the old one: the caller still
             owns oc1 and may close it without losing lines. *)
          Tel.attach_sink tel oc2;
          let lines path =
            let ic = open_in path in
            let rec go acc =
              match input_line ic with
              | l -> go (l :: acc)
              | exception End_of_file -> close_in ic; List.rev acc
            in
            go []
          in
          Alcotest.(check int) "old sink flushed on replace" 1
            (List.length (lines path1));
          Tel.trace tel ~time:2.0 ~kind:Rec.Dequeue ~uid:1 ~link:(-1)
            ~tenant:(-1) ~flow:(-1) ~rank_before:(-1) ~rank:(-1);
          (* The counter is per-sink: the replacement starts fresh. *)
          Alcotest.(check int) "replacement sink saw one event" 1
            (Tel.events_written tel);
          Tel.detach_sink tel;
          Alcotest.(check int) "detach flushes the new sink" 1
            (List.length (lines path2));
          close_out oc1;
          close_out oc2))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "forensics"
    [
      ( "recorder",
        [
          Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "capacity one" `Quick test_ring_capacity_one;
          Alcotest.test_case "disabled no-op" `Quick test_ring_disabled;
          Alcotest.test_case "dump/lineage round-trip" `Quick
            test_dump_lineage_roundtrip;
        ] );
      ( "trigger",
        [
          Alcotest.test_case "needs a full window" `Quick
            test_trigger_needs_full_window;
          Alcotest.test_case "hysteresis prevents storms" `Quick
            test_trigger_hysteresis_no_storm;
          Alcotest.test_case "recovers when drops stop" `Quick
            test_trigger_recovers;
          Alcotest.test_case "force and validation" `Quick
            test_trigger_force_and_validation;
        ] );
      ( "span",
        [
          Alcotest.test_case "nesting totals" `Quick test_span_nesting_totals;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
          Alcotest.test_case "chrome export balanced" `Quick
            test_span_chrome_balanced;
          Alcotest.test_case "disabled passthrough" `Quick
            test_span_disabled_passthrough;
          Alcotest.test_case "merge structure jobs-invariant" `Quick
            test_span_merge_jobs_invariant;
        ] );
      ( "lineage",
        [
          Alcotest.test_case "golden fixture loads" `Quick
            test_lineage_golden_load;
          Alcotest.test_case "uid journey" `Quick test_lineage_query_uid;
          Alcotest.test_case "grouping and filters" `Quick
            test_lineage_grouping_and_filters;
          Alcotest.test_case "malformed line rejected" `Quick
            test_lineage_rejects_malformed;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "histogram quantile" `Quick
            test_histogram_quantile;
          Alcotest.test_case "sink replacement flushes" `Quick
            test_attach_sink_replacement_flushes;
        ] );
    ]
