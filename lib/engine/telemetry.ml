module Counter = struct
  type t = { mutable n : int }

  let incr t = t.n <- t.n + 1

  let add t k = t.n <- t.n + k

  let value t = t.n
end

module Gauge = struct
  type t = { mutable v : float }

  let set t x = t.v <- x

  let value t = t.v
end

module Histogram = struct
  (* Count, Welford mean, sum, min and max sit in one unboxed float array
     (a mixed record like [Stats.t] boxes every float store), so
     [observe] allocates nothing.  The updates are [Stats.add]'s and the
     merge is [Stats.merge_into]'s, operation for operation. *)
  type t = {
    m : float array; (* count, mean, sum, min, max *)
    p50 : P2_quantile.t;
    p90 : P2_quantile.t;
    p99 : P2_quantile.t;
  }

  let make () =
    {
      m = [| 0.; 0.; 0.; nan; nan |];
      p50 = P2_quantile.create ~q:0.5;
      p90 = P2_quantile.create ~q:0.9;
      p99 = P2_quantile.create ~q:0.99;
    }

  let observe t x =
    let m = t.m in
    let n = m.(0) +. 1. in
    m.(0) <- n;
    let mean = m.(1) in
    m.(1) <- mean +. ((x -. mean) /. n);
    m.(2) <- m.(2) +. x;
    if n = 1. then begin
      m.(3) <- x;
      m.(4) <- x
    end
    else begin
      if x < m.(3) then m.(3) <- x;
      if x > m.(4) then m.(4) <- x
    end;
    P2_quantile.add t.p50 x;
    P2_quantile.add t.p90 x;
    P2_quantile.add t.p99 x

  let count t = int_of_float t.m.(0)

  let mean t = if t.m.(0) = 0. then nan else t.m.(1)

  let sum t = t.m.(2)

  let min t = t.m.(3)

  let max t = t.m.(4)

  let quantile t q =
    let sketch =
      if q = 0.5 then t.p50
      else if q = 0.9 then t.p90
      else if q = 0.99 then t.p99
      else
        invalid_arg
          (Printf.sprintf
             "Telemetry.Histogram.quantile: only 0.5/0.9/0.99 are tracked \
              (got %g)"
             q)
    in
    P2_quantile.estimate sketch

  let merge_into ~into src =
    let d = into.m and s = src.m in
    if s.(0) > 0. then begin
      let n0 = d.(0) and n1 = s.(0) in
      let n = n0 +. n1 in
      d.(1) <- ((d.(1) *. n0) +. (s.(1) *. n1)) /. n;
      d.(0) <- n;
      d.(2) <- d.(2) +. s.(2);
      d.(3) <- (if Float.is_nan d.(3) then s.(3) else Float.min d.(3) s.(3));
      d.(4) <- (if Float.is_nan d.(4) then s.(4) else Float.max d.(4) s.(4))
    end;
    P2_quantile.merge_into ~into:into.p50 src.p50;
    P2_quantile.merge_into ~into:into.p90 src.p90;
    P2_quantile.merge_into ~into:into.p99 src.p99
end

type sink = {
  oc : out_channel;
  sample : float;
  rng : Rng.t;
  mutable seen : int;
  mutable written : int;
}

type t = {
  enabled : bool;
  counters : (string, Counter.t) Hashtbl.t;
  gauges : (string, Gauge.t) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
  mutable sink : sink option;
}

let create () =
  {
    enabled = true;
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    histograms = Hashtbl.create 8;
    sink = None;
  }

(* The shared no-op registry.  Its tables stay empty because interning is
   skipped when [enabled] is false. *)
let disabled =
  {
    enabled = false;
    counters = Hashtbl.create 1;
    gauges = Hashtbl.create 1;
    histograms = Hashtbl.create 1;
    sink = None;
  }

let is_enabled t = t.enabled

let intern tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some m -> m
  | None ->
    let m = make () in
    Hashtbl.add tbl name m;
    m

let counter t name =
  if not t.enabled then { Counter.n = 0 }
  else intern t.counters name (fun () -> { Counter.n = 0 })

let gauge t name =
  if not t.enabled then { Gauge.v = 0. }
  else intern t.gauges name (fun () -> { Gauge.v = 0. })

let histogram t name =
  if not t.enabled then Histogram.make ()
  else intern t.histograms name Histogram.make

(* ------------------------------------------------------------------ *)
(* Trace sink                                                         *)
(* ------------------------------------------------------------------ *)

let attach_sink t ?(sample = 1.0) ?(seed = 0) oc =
  if sample < 0. || sample > 1. then
    invalid_arg "Telemetry.attach_sink: sample outside [0,1]";
  if t.enabled then begin
    (* Flush the sink being replaced so its buffered lines reach the old
       channel before the registry forgets it. *)
    (match t.sink with None -> () | Some old -> flush old.oc);
    t.sink <-
      Some { oc; sample; rng = Rng.create ~seed; seen = 0; written = 0 }
  end

let detach_sink t =
  match t.sink with
  | None -> ()
  | Some s ->
    flush s.oc;
    t.sink <- None

let tracing t = t.sink <> None

let events_seen t = match t.sink with Some s -> s.seen | None -> 0

let events_written t = match t.sink with Some s -> s.written | None -> 0

let trace t ~time ~kind ~uid ~link ~tenant ~flow ~rank_before ~rank =
  match t.sink with
  | None -> ()
  | Some s ->
    s.seen <- s.seen + 1;
    if s.sample >= 1.0 || Rng.float s.rng < s.sample then begin
      s.written <- s.written + 1;
      let row =
        { Recorder.time; kind; uid; link; tenant; flow; rank_before; rank }
      in
      output_string s.oc (Json.to_string (Recorder.event_to_json row));
      output_char s.oc '\n'
    end

(* ------------------------------------------------------------------ *)
(* Merge                                                              *)
(* ------------------------------------------------------------------ *)

let sorted_bindings tbl =
  Hashtbl.fold (fun name m acc -> (name, m) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let merge_into ~into src =
  if into.enabled && src.enabled then begin
    List.iter
      (fun (name, (c : Counter.t)) -> Counter.add (counter into name) c.n)
      (sorted_bindings src.counters);
    (* Gauges are last-write-wins: the source (later in submission order)
       overwrites, matching what a serial run would have left behind. *)
    List.iter
      (fun (name, (g : Gauge.t)) -> Gauge.set (gauge into name) g.v)
      (sorted_bindings src.gauges);
    List.iter
      (fun (name, h) -> Histogram.merge_into ~into:(histogram into name) h)
      (sorted_bindings src.histograms);
    match (into.sink, src.sink) with
    | Some d, Some s ->
      d.seen <- d.seen + s.seen;
      d.written <- d.written + s.written
    | _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Export                                                             *)
(* ------------------------------------------------------------------ *)

let exported_counters t =
  List.map (fun (name, c) -> (name, Counter.value c)) (sorted_bindings t.counters)

let exported_gauges t =
  List.map (fun (name, g) -> (name, Gauge.value g)) (sorted_bindings t.gauges)

let exported_histograms t = sorted_bindings t.histograms

(* ------------------------------------------------------------------ *)
(* Snapshot                                                           *)
(* ------------------------------------------------------------------ *)

let num_or_null x =
  if Float.is_nan x || x = infinity || x = neg_infinity then Json.Null
  else Json.Number x

let sorted_fields tbl render =
  Hashtbl.fold (fun name m acc -> (name, render m) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot t =
  let counters =
    sorted_fields t.counters (fun c ->
        Json.Number (float_of_int (Counter.value c)))
  in
  let gauges = sorted_fields t.gauges (fun g -> num_or_null (Gauge.value g)) in
  let histograms =
    sorted_fields t.histograms (fun (h : Histogram.t) ->
        Json.Obj
          [
            ("count", Json.Number (float_of_int (Histogram.count h)));
            ("mean", num_or_null (Histogram.mean h));
            ("min", num_or_null (Histogram.min h));
            ("max", num_or_null (Histogram.max h));
            ("sum", num_or_null (Histogram.sum h));
            ("p50", num_or_null (P2_quantile.estimate h.p50));
            ("p90", num_or_null (P2_quantile.estimate h.p90));
            ("p99", num_or_null (P2_quantile.estimate h.p99));
          ])
  in
  let trace =
    match t.sink with
    | None -> []
    | Some s ->
      [
        ( "trace",
          Json.Obj
            [
              ("sample", Json.Number s.sample);
              ("seen", Json.Number (float_of_int s.seen));
              ("written", Json.Number (float_of_int s.written));
            ] );
      ]
  in
  Json.Obj
    ([
       ("counters", Json.Obj counters);
       ("gauges", Json.Obj gauges);
       ("histograms", Json.Obj histograms);
     ]
    @ trace)
