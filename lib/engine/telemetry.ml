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
  type t = {
    stats : Stats.t;
    p50 : P2_quantile.t;
    p90 : P2_quantile.t;
    p99 : P2_quantile.t;
  }

  let make () =
    {
      stats = Stats.create ~keep_samples:false ();
      p50 = P2_quantile.create ~q:0.5;
      p90 = P2_quantile.create ~q:0.9;
      p99 = P2_quantile.create ~q:0.99;
    }

  let observe t x =
    Stats.add t.stats x;
    P2_quantile.add t.p50 x;
    P2_quantile.add t.p90 x;
    P2_quantile.add t.p99 x

  let count t = Stats.count t.stats

  let mean t = Stats.mean t.stats

  let sum t = Stats.sum t.stats

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

let event t ~time ~kind ?uid ?link ?tenant ?flow ?rank_before ?rank
    ?(extra = []) () =
  match t.sink with
  | None -> ()
  | Some s ->
    s.seen <- s.seen + 1;
    let keep = s.sample >= 1.0 || Rng.float s.rng < s.sample in
    if keep then begin
      s.written <- s.written + 1;
      let opt name v rest =
        match v with
        | None -> rest
        | Some x -> (name, Json.Number (float_of_int x)) :: rest
      in
      let fields =
        ("t", Json.Number time)
        :: ("ev", Json.String kind)
        :: opt "uid" uid
             (opt "link" link
                (opt "tenant" tenant
                   (opt "flow" flow
                      (opt "rank_before" rank_before (opt "rank" rank extra)))))
      in
      output_string s.oc (Json.to_string (Json.Obj fields));
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
      (fun (name, (h : Histogram.t)) ->
        let dst = histogram into name in
        Stats.merge_into ~into:dst.Histogram.stats h.Histogram.stats;
        P2_quantile.merge_into ~into:dst.Histogram.p50 h.Histogram.p50;
        P2_quantile.merge_into ~into:dst.Histogram.p90 h.Histogram.p90;
        P2_quantile.merge_into ~into:dst.Histogram.p99 h.Histogram.p99)
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
            ("count", Json.Number (float_of_int (Stats.count h.stats)));
            ("mean", num_or_null (Stats.mean h.stats));
            ("min", num_or_null (Stats.min h.stats));
            ("max", num_or_null (Stats.max h.stats));
            ("sum", num_or_null (Stats.sum h.stats));
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
