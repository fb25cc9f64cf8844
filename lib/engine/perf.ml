let word_bytes = float_of_int (Sys.word_size / 8)

let allocated_bytes () =
  let minor, promoted, major = Gc.counters () in
  (minor +. major -. promoted) *. word_bytes

(* [Gc.counters] reads the allocation counters *before* allocating its
   result tuple, so the delta of two consecutive probes is exactly the
   first probe's own footprint.  Calibrate once (minimum of a few runs,
   in case a collection lands between two probes). *)
let probe_overhead_bytes =
  let sample () =
    let a0 = allocated_bytes () in
    let a1 = allocated_bytes () in
    a1 -. a0
  in
  ignore (sample ());
  let s = List.init 5 (fun _ -> sample ()) in
  Float.max 0. (List.fold_left Float.min infinity s)

let write_atomic path f =
  let dir = Filename.dirname path in
  let tmp, oc =
    Filename.open_temp_file ~temp_dir:dir
      ("." ^ Filename.basename path ^ ".")
      ".tmp"
  in
  match f oc with
  | () ->
    close_out oc;
    Sys.rename tmp path
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* ------------------------------------------------------------------ *)
(* GC telemetry                                                       *)
(* ------------------------------------------------------------------ *)

module Pause = struct
  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    max_ns : int64 ref;
  }

  let start () =
    try
      (* Keep the runtime ring file out of the working directory unless
         the user already chose a spot. *)
      (match Sys.getenv_opt "OCAML_RUNTIME_EVENTS_DIR" with
      | Some _ -> ()
      | None ->
        Unix.putenv "OCAML_RUNTIME_EVENTS_DIR" (Filename.get_temp_dir_name ()));
      Runtime_events.start ();
      let cursor = Runtime_events.create_cursor None in
      let starts :
          ( int * Runtime_events.runtime_phase,
            Runtime_events.Timestamp.t )
          Hashtbl.t =
        Hashtbl.create 32
      in
      let max_ns = ref 0L in
      let runtime_begin ring ts phase = Hashtbl.replace starts (ring, phase) ts in
      let runtime_end ring ts phase =
        match Hashtbl.find_opt starts (ring, phase) with
        | None -> ()
        | Some t0 ->
          Hashtbl.remove starts (ring, phase);
          let d =
            Int64.sub
              (Runtime_events.Timestamp.to_int64 ts)
              (Runtime_events.Timestamp.to_int64 t0)
          in
          if Int64.compare d !max_ns > 0 then max_ns := d
      in
      let callbacks =
        Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ()
      in
      Some { cursor; callbacks; max_ns }
    with _ -> None

  let poll t =
    try ignore (Runtime_events.read_poll t.cursor t.callbacks None)
    with _ -> ()

  let max_pause_seconds t = Int64.to_float !(t.max_ns) *. 1e-9
end

let sample_gc ?pause tel =
  if Telemetry.is_enabled tel then begin
    let s = Gc.quick_stat () in
    let g name v = Telemetry.Gauge.set (Telemetry.gauge tel name) v in
    g "gc.minor_collections" (float_of_int s.Gc.minor_collections);
    g "gc.major_collections" (float_of_int s.Gc.major_collections);
    g "gc.compactions" (float_of_int s.Gc.compactions);
    g "gc.heap_words" (float_of_int s.Gc.heap_words);
    g "gc.top_heap_words" (float_of_int s.Gc.top_heap_words);
    g "gc.minor_words" s.Gc.minor_words;
    g "gc.promoted_words" s.Gc.promoted_words;
    g "gc.major_words" s.Gc.major_words;
    g "gc.allocated_bytes"
      ((s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
      *. word_bytes);
    match pause with
    | None -> ()
    | Some p ->
      Pause.poll p;
      g "gc.max_pause_seconds" (Pause.max_pause_seconds p)
  end

(* ------------------------------------------------------------------ *)
(* Per-stage throughput meters                                        *)
(* ------------------------------------------------------------------ *)

module Meter = struct
  type t = {
    m_name : string;
    m_enabled : bool;
    m_mask : int;
    mutable m_ops : int;
    (* Minor-heap words allocated so far, captured by [before] on a
       sampled event; [min_int] when no sample is in flight.
       [Gc.minor_words] is an unboxed external that allocates nothing and
       is exact, where [Gc.counters] allocates its result and folds in a
       major counter that catches up inside whichever window it lands
       in.  Stored as an int so the bracket never allocates a float box. *)
    mutable m_pending : int;
    mutable m_sampled : int;
    mutable m_sampled_bytes : int;
  }

  let create ?(sample = 64) name =
    if sample <= 0 || sample land (sample - 1) <> 0 then
      invalid_arg "Perf.Meter.create: sample must be a positive power of two";
    {
      m_name = name;
      m_enabled = true;
      m_mask = sample - 1;
      m_ops = 0;
      m_pending = min_int;
      m_sampled = 0;
      m_sampled_bytes = 0;
    }

  let disabled =
    {
      m_name = "disabled";
      m_enabled = false;
      m_mask = 0;
      m_ops = 0;
      m_pending = min_int;
      m_sampled = 0;
      m_sampled_bytes = 0;
    }

  let name t = t.m_name

  let before t =
    if t.m_enabled then begin
      t.m_ops <- t.m_ops + 1;
      if t.m_ops land t.m_mask = 0 then
        t.m_pending <- int_of_float (Gc.minor_words ())
    end

  let after t =
    if t.m_enabled && t.m_pending <> min_int then begin
      let words = int_of_float (Gc.minor_words ()) - t.m_pending in
      t.m_pending <- min_int;
      t.m_sampled <- t.m_sampled + 1;
      t.m_sampled_bytes <- t.m_sampled_bytes + (words * (Sys.word_size / 8))
    end

  let ops t = t.m_ops

  let alloc_bytes_per_op t =
    if t.m_sampled = 0 then Float.nan
    else float_of_int t.m_sampled_bytes /. float_of_int t.m_sampled
end

module Meters = struct
  type t = {
    ms_enabled : bool;
    ms_enqueue : Meter.t;
    ms_dequeue : Meter.t;
    ms_preprocess : Meter.t;
    ms_recorder : Meter.t;
    ms_slo : Meter.t;
    mutable ms_last_wall : float;
    ms_last_ops : int array;
  }

  let create () =
    {
      ms_enabled = true;
      ms_enqueue = Meter.create "enqueue";
      ms_dequeue = Meter.create "dequeue";
      ms_preprocess = Meter.create "preprocess";
      ms_recorder = Meter.create "recorder";
      ms_slo = Meter.create "slo_audit";
      ms_last_wall = Unix.gettimeofday ();
      ms_last_ops = Array.make 5 0;
    }

  let disabled =
    {
      ms_enabled = false;
      ms_enqueue = Meter.disabled;
      ms_dequeue = Meter.disabled;
      ms_preprocess = Meter.disabled;
      ms_recorder = Meter.disabled;
      ms_slo = Meter.disabled;
      ms_last_wall = 0.;
      ms_last_ops = Array.make 5 0;
    }

  let is_enabled t = t.ms_enabled
  let enqueue t = t.ms_enqueue
  let dequeue t = t.ms_dequeue
  let preprocess t = t.ms_preprocess
  let recorder t = t.ms_recorder
  let slo_audit t = t.ms_slo

  let all t =
    [ t.ms_enqueue; t.ms_dequeue; t.ms_preprocess; t.ms_recorder; t.ms_slo ]

  let publish t tel =
    if t.ms_enabled && Telemetry.is_enabled tel then begin
      let now = Unix.gettimeofday () in
      let dt = now -. t.ms_last_wall in
      List.iteri
        (fun i m ->
          let ops = Meter.ops m in
          let window = ops - t.ms_last_ops.(i) in
          t.ms_last_ops.(i) <- ops;
          let stage = Meter.name m in
          Telemetry.Counter.add
            (Telemetry.counter tel
               (Printf.sprintf "perf.stage.%s.events" stage))
            window;
          if window > 0 && dt > 0. then
            Telemetry.Gauge.set
              (Telemetry.gauge tel
                 (Printf.sprintf "perf.stage.%s.events_per_sec" stage))
              (float_of_int window /. dt);
          let bpe = Meter.alloc_bytes_per_op m in
          if Float.is_finite bpe then
            Telemetry.Gauge.set
              (Telemetry.gauge tel
                 (Printf.sprintf "perf.stage.%s.alloc_bytes_per_event" stage))
              bpe)
        (all t);
      t.ms_last_wall <- now
    end
end

(* ------------------------------------------------------------------ *)
(* Micro-benchmark harness                                            *)
(* ------------------------------------------------------------------ *)

module Summary = struct
  type t = {
    s_min : float;
    s_median : float;
    s_mad : float;
    s_samples : float list;
  }

  let median xs =
    match xs with
    | [] -> Float.nan
    | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

  let of_samples samples =
    let m = median samples in
    let mad = median (List.map (fun x -> Float.abs (x -. m)) samples) in
    let mn =
      match samples with
      | [] -> Float.nan
      | x :: r -> List.fold_left Float.min x r
    in
    { s_min = mn; s_median = m; s_mad = mad; s_samples = samples }
end

module Bench = struct
  type entry = {
    b_name : string;
    b_iters : int;
    b_trials : int;
    b_ns_per_op : Summary.t;
    b_alloc_per_op : Summary.t;
  }

  let max_iters = 1 lsl 24

  let run ?(trials = 7) ?(min_time_s = 0.05) ~name f =
    if trials <= 0 then invalid_arg "Perf.Bench.run: trials must be positive";
    if not (min_time_s > 0.) then
      invalid_arg "Perf.Bench.run: min_time_s must be positive";
    (* Grow the per-trial iteration count until one trial is long enough
       for the wall clock to resolve; the first rounds double as warm-up. *)
    let rec calibrate iters =
      let t0 = Unix.gettimeofday () in
      f iters;
      let dt = Unix.gettimeofday () -. t0 in
      if dt >= min_time_s || iters >= max_iters then iters
      else
        let grow =
          if dt <= 0. then float_of_int iters *. 8.
          else
            Float.min
              (float_of_int iters *. 8.)
              (float_of_int iters *. min_time_s *. 1.25 /. dt)
        in
        calibrate (min max_iters (max (iters + 1) (int_of_float grow)))
    in
    let iters = calibrate 64 in
    let ns = ref [] and allocs = ref [] in
    for _ = 1 to trials do
      let a0 = allocated_bytes () in
      let t0 = Unix.gettimeofday () in
      f iters;
      let t1 = Unix.gettimeofday () in
      let a1 = allocated_bytes () in
      ns := (1e9 *. (t1 -. t0) /. float_of_int iters) :: !ns;
      allocs :=
        Float.max 0. (a1 -. a0 -. probe_overhead_bytes) /. float_of_int iters
        :: !allocs
    done;
    {
      b_name = name;
      b_iters = iters;
      b_trials = trials;
      b_ns_per_op = Summary.of_samples (List.rev !ns);
      b_alloc_per_op = Summary.of_samples (List.rev !allocs);
    }

  let schema = "qvisor-bench-engine/1"
  let num v = if Float.is_finite v then Json.Number v else Json.Null

  let summary_to_json (s : Summary.t) =
    Json.Obj
      [
        ("min", num s.Summary.s_min);
        ("median", num s.Summary.s_median);
        ("mad", num s.Summary.s_mad);
        ("samples", Json.List (List.map num s.Summary.s_samples));
      ]

  let entry_to_json e =
    Json.Obj
      [
        ("name", Json.String e.b_name);
        ("iters", Json.Number (float_of_int e.b_iters));
        ("trials", Json.Number (float_of_int e.b_trials));
        ("ns_per_op", summary_to_json e.b_ns_per_op);
        ("alloc_bytes_per_op", summary_to_json e.b_alloc_per_op);
      ]

  let report_to_json ~mode entries =
    Json.Obj
      [
        ("schema", Json.String schema);
        ("mode", Json.String mode);
        ("benchmarks", Json.List (List.map entry_to_json entries));
      ]

  let ( let* ) = Result.bind

  let field name j =
    Option.to_result
      ~none:(Printf.sprintf "missing field %S" name)
      (Json.member name j)

  let fnum = function
    | Json.Null -> Ok Float.nan
    | j -> Option.to_result ~none:"expected a number" (Json.to_float j)

  let fint j = Option.to_result ~none:"expected an integer" (Json.to_int j)

  let summary_of_json j =
    let* mn = field "min" j in
    let* mn = fnum mn in
    let* med = field "median" j in
    let* med = fnum med in
    let* mad = field "mad" j in
    let* mad = fnum mad in
    let* samples = field "samples" j in
    let* samples =
      match Json.to_list samples with
      | None -> Error "samples: expected a list"
      | Some l ->
        List.fold_left
          (fun acc x ->
            let* acc = acc in
            let* v = fnum x in
            Ok (v :: acc))
          (Ok []) l
        |> Result.map List.rev
    in
    Ok
      Summary.
        { s_min = mn; s_median = med; s_mad = mad; s_samples = samples }

  let entry_of_json j =
    let* name = field "name" j in
    let* name =
      Option.to_result ~none:"name: expected a string" (Json.to_str name)
    in
    let ctx e = Printf.sprintf "benchmark %S: %s" name e in
    let* iters = field "iters" j |> Result.map_error ctx in
    let* iters = fint iters |> Result.map_error ctx in
    let* trials = field "trials" j |> Result.map_error ctx in
    let* trials = fint trials |> Result.map_error ctx in
    let* ns = field "ns_per_op" j |> Result.map_error ctx in
    let* ns = summary_of_json ns |> Result.map_error ctx in
    let* alloc = field "alloc_bytes_per_op" j |> Result.map_error ctx in
    let* alloc = summary_of_json alloc |> Result.map_error ctx in
    Ok
      {
        b_name = name;
        b_iters = iters;
        b_trials = trials;
        b_ns_per_op = ns;
        b_alloc_per_op = alloc;
      }

  let report_of_json j =
    match Json.member "schema" j with
    | Some (Json.String s) when s = schema -> (
      let* bs = field "benchmarks" j in
      match Json.to_list bs with
      | None -> Error "benchmarks: expected a list"
      | Some l ->
        List.fold_left
          (fun acc x ->
            let* acc = acc in
            let* e = entry_of_json x in
            Ok (e :: acc))
          (Ok []) l
        |> Result.map List.rev)
    | Some (Json.String s) ->
      Error (Printf.sprintf "unsupported schema %S (expected %S)" s schema)
    | Some _ | None -> Error (Printf.sprintf "missing %S field" "schema")

  let read_report path =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error e -> Error e
    | raw -> (
      match Json.of_string raw with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok j ->
        Result.map_error (Printf.sprintf "%s: %s" path) (report_of_json j))
end

(* ------------------------------------------------------------------ *)
(* Statistical comparator                                             *)
(* ------------------------------------------------------------------ *)

module Diff = struct
  type verdict =
    | Regression
    | Improvement
    | Within_noise
    | Missing_baseline
    | Missing_current
    | Incomparable

  type row = {
    r_metric : string;
    r_old : float;
    r_new : float;
    r_change : float;
    r_noise : float;
    r_verdict : verdict;
  }

  type report = { d_threshold : float; d_noise_k : float; d_rows : row list }

  let verdict_name = function
    | Regression -> "regression"
    | Improvement -> "improvement"
    | Within_noise -> "within-noise"
    | Missing_baseline -> "missing-in-baseline"
    | Missing_current -> "missing-in-current"
    | Incomparable -> "incomparable"

  let dims =
    [
      ("ns/op", fun (e : Bench.entry) -> e.Bench.b_ns_per_op);
      ("alloc B/op", fun (e : Bench.entry) -> e.Bench.b_alloc_per_op);
    ]

  let compare ?(threshold = 0.15) ?(noise_k = 3.) ~baseline ~current () =
    if not (threshold > 0.) then
      invalid_arg "Perf.Diff.compare: threshold must be positive";
    if not (noise_k >= 0.) then
      invalid_arg "Perf.Diff.compare: noise_k must be non-negative";
    let find name entries =
      List.find_opt (fun (e : Bench.entry) -> e.Bench.b_name = name) entries
    in
    let names =
      let base = List.map (fun (e : Bench.entry) -> e.Bench.b_name) baseline in
      base
      @ List.filter
          (fun n -> not (List.mem n base))
          (List.map (fun (e : Bench.entry) -> e.Bench.b_name) current)
    in
    let rows =
      List.concat_map
        (fun nm ->
          List.map
            (fun (dim, get) ->
              let metric = nm ^ " " ^ dim in
              match (find nm baseline, find nm current) with
              | None, None -> assert false
              | Some b, None ->
                {
                  r_metric = metric;
                  r_old = (get b).Summary.s_median;
                  r_new = Float.nan;
                  r_change = Float.nan;
                  r_noise = 0.;
                  r_verdict = Missing_current;
                }
              | None, Some c ->
                {
                  r_metric = metric;
                  r_old = Float.nan;
                  r_new = (get c).Summary.s_median;
                  r_change = Float.nan;
                  r_noise = 0.;
                  r_verdict = Missing_baseline;
                }
              | Some b, Some c ->
                let sb = get b and sc = get c in
                let old_m = sb.Summary.s_median
                and new_m = sc.Summary.s_median in
                let noise = noise_k *. (sb.Summary.s_mad +. sc.Summary.s_mad) in
                if
                  (not (Float.is_finite old_m))
                  || old_m <= 0.
                  || not (Float.is_finite new_m)
                then
                  {
                    r_metric = metric;
                    r_old = old_m;
                    r_new = new_m;
                    r_change = Float.nan;
                    r_noise = noise;
                    r_verdict = Incomparable;
                  }
                else
                  let delta = new_m -. old_m in
                  let rel = delta /. old_m in
                  let outside = Float.abs delta > noise in
                  let verdict =
                    if rel >= threshold && outside then Regression
                    else if rel <= -.threshold && outside then Improvement
                    else Within_noise
                  in
                  {
                    r_metric = metric;
                    r_old = old_m;
                    r_new = new_m;
                    r_change = rel;
                    r_noise = noise;
                    r_verdict = verdict;
                  })
            dims)
        names
    in
    { d_threshold = threshold; d_noise_k = noise_k; d_rows = rows }

  let regressions r =
    List.length (List.filter (fun row -> row.r_verdict = Regression) r.d_rows)

  let report_to_json r =
    let num v = if Float.is_finite v then Json.Number v else Json.Null in
    Json.Obj
      [
        ("schema", Json.String "qvisor-bench-diff/1");
        ("threshold", Json.Number r.d_threshold);
        ("noise_k", Json.Number r.d_noise_k);
        ("regressions", Json.Number (float_of_int (regressions r)));
        ( "verdict",
          Json.String (if regressions r > 0 then "regression" else "pass") );
        ( "rows",
          Json.List
            (List.map
               (fun row ->
                 Json.Obj
                   [
                     ("metric", Json.String row.r_metric);
                     ("old_median", num row.r_old);
                     ("new_median", num row.r_new);
                     ("rel_change", num row.r_change);
                     ("noise_band", num row.r_noise);
                     ("verdict", Json.String (verdict_name row.r_verdict));
                   ])
               r.d_rows) );
      ]

  let pp_report ppf r =
    let rows =
      List.stable_sort
        (fun a b ->
          match (Float.is_finite a.r_change, Float.is_finite b.r_change) with
          | true, true -> Float.compare b.r_change a.r_change
          | true, false -> -1
          | false, true -> 1
          | false, false -> 0)
        r.d_rows
    in
    let cell v = if Float.is_finite v then Printf.sprintf "%.2f" v else "-" in
    let change row =
      if Float.is_finite row.r_change then
        Printf.sprintf "%+.1f%%" (100. *. row.r_change)
      else "-"
    in
    Format.fprintf ppf "@[<v>%-42s %12s %12s %8s  %s@," "metric" "old median"
      "new median" "change" "verdict";
    List.iter
      (fun row ->
        Format.fprintf ppf "%-42s %12s %12s %8s  %s@," row.r_metric
          (cell row.r_old) (cell row.r_new) (change row)
          (verdict_name row.r_verdict))
      rows;
    Format.fprintf ppf
      "%d metric(s), %d regression(s); threshold %.0f%%, noise band %.1f x MAD@]"
      (List.length r.d_rows) (regressions r)
      (100. *. r.d_threshold)
      r.d_noise_k
end
