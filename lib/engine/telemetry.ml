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
     merge is [Stats.merge_into]'s, operation for operation.

     The distribution is a fixed log-linear bucket array, HdrHistogram
     style: [2^sub_bits] equal sub-buckets per octave over
     [2^lo_exp, 2^hi_exp), plus a zero bucket (x <= 0), an underflow
     bucket (0 < x < 2^lo_exp) and an overflow bucket (x >= 2^hi_exp,
     and nan).  An in-range value's bucket is its biased exponent and top
     [sub_bits] mantissa bits read straight off the IEEE-754 word, so
     there is no [log] call and buckets are exact power-of-two splits. *)
  let sub_bits = 5
  let lo_exp = -32
  let hi_exp = 32
  let zero = 0
  let under = 1
  let first = 2
  let over = first + ((hi_exp - lo_exp) lsl sub_bits)

  (* [bits lsr (52 - sub_bits)] of a positive float is its biased
     exponent followed by its top [sub_bits] mantissa bits. *)
  let base = ((1023 + lo_exp) lsl sub_bits) - first

  (* The literals are 2^hi_exp and 2^lo_exp. *)
  let[@inline] index x =
    if x < 0x1p32 then
      if x >= 0x1p-32 then
        Int64.to_int
          (Int64.shift_right_logical (Int64.bits_of_float x) (52 - sub_bits))
        - base
      else if x > 0. then under
      else zero
    else over

  (* The value a bucket stands for: the midpoint of a log-linear bucket
     (within half a sub-bucket, 1/64 relative, of anything in it); the
     edge buckets' values are clamped to the observed range by the
     caller. *)
  let value i =
    if i = zero then 0.
    else if i = under then Float.ldexp 1. (lo_exp - 1)
    else if i = over then infinity
    else
      let j = i - first in
      let octave = lo_exp + (j lsr sub_bits)
      and sub = j land ((1 lsl sub_bits) - 1) in
      (* 2^octave * (1 + (sub + 1/2) / 2^sub_bits) *)
      Float.ldexp
        (float_of_int ((2 lsl sub_bits) + (2 * sub) + 1))
        (octave - sub_bits - 1)

  type t = {
    m : float array; (* count, mean, sum, min, max *)
    buckets : int array;
  }

  let create () =
    { m = [| 0.; 0.; 0.; nan; nan |]; buckets = Array.make (over + 1) 0 }

  (* [m] has five slots and [index] stays within [0, over], so the
     per-hop path skips the bounds checks. *)
  let observe t x =
    let m = t.m in
    let n = Array.unsafe_get m 0 +. 1. in
    Array.unsafe_set m 0 n;
    let mean = Array.unsafe_get m 1 in
    Array.unsafe_set m 1 (mean +. ((x -. mean) /. n));
    Array.unsafe_set m 2 (Array.unsafe_get m 2 +. x);
    if n = 1. then begin
      Array.unsafe_set m 3 x;
      Array.unsafe_set m 4 x
    end
    else begin
      if x < Array.unsafe_get m 3 then Array.unsafe_set m 3 x;
      if x > Array.unsafe_get m 4 then Array.unsafe_set m 4 x
    end;
    let b = t.buckets and i = index x in
    Array.unsafe_set b i (Array.unsafe_get b i + 1)

  let count t = int_of_float t.m.(0)

  let mean t = if t.m.(0) = 0. then nan else t.m.(1)

  let sum t = t.m.(2)

  let min t = t.m.(3)

  let max t = t.m.(4)

  let quantile t q =
    if not (q >= 0. && q <= 1.) then
      invalid_arg
        (Printf.sprintf "Telemetry.Histogram.quantile: q = %g outside [0, 1]" q);
    let n = t.m.(0) and mn = min t and mx = max t in
    if n = 0. then nan
    else if q = 0. then mn
    else if q = 1. then mx
    else begin
      (* Walk up from the minimum's bucket to the one holding the
         [ceil (q n)]-th smallest observation.  A nan first sample leaves
         [min] nan; the walk then starts at the bottom. *)
      let rank = Stdlib.max 1 (int_of_float (Float.ceil (q *. n))) in
      let b = t.buckets in
      let i = ref (if Float.is_nan mn then zero else index mn) in
      let seen = ref b.(!i) in
      while !seen < rank && !i < over do
        incr i;
        seen := !seen + b.(!i)
      done;
      let v = value !i in
      if v < mn then mn else if v > mx then mx else v
    end

  let merge_into ~into src =
    let d = into.m and s = src.m in
    if s.(0) > 0. then begin
      let n0 = d.(0) and n1 = s.(0) in
      let n = n0 +. n1 in
      d.(1) <- ((d.(1) *. n0) +. (s.(1) *. n1)) /. n;
      d.(0) <- n;
      d.(2) <- d.(2) +. s.(2);
      d.(3) <- (if Float.is_nan d.(3) then s.(3) else Float.min d.(3) s.(3));
      d.(4) <- (if Float.is_nan d.(4) then s.(4) else Float.max d.(4) s.(4));
      let db = into.buckets and sb = src.buckets in
      for i = 0 to over do
        db.(i) <- db.(i) + sb.(i)
      done
    end
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
  if not t.enabled then Histogram.create ()
  else intern t.histograms name Histogram.create

(* ------------------------------------------------------------------ *)
(* Trace sink                                                         *)
(* ------------------------------------------------------------------ *)

let attach_sink t ?(sample = 1.0) ?(seed = 0) oc =
  if not (sample >= 0. && sample <= 1.) then
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
            ("p50", num_or_null (Histogram.quantile h 0.5));
            ("p90", num_or_null (Histogram.quantile h 0.9));
            ("p99", num_or_null (Histogram.quantile h 0.99));
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
