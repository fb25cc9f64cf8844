type kind = Gauge | Counter

let kind_to_string = function Gauge -> "gauge" | Counter -> "counter"

type tier = { resolution : float; slots : int }

let default_tiers =
  [
    { resolution = 1.; slots = 120 };
    { resolution = 10.; slots = 180 };
    { resolution = 60.; slots = 240 };
  ]

(* One ring per (series, tier).  Parallel unboxed arrays rather than a
   record per slot: the whole ring is six flat blocks, no per-slot
   indirection, nothing for the GC to scan but the array headers.
   [epochs.(i)] holds the bucket index whose aggregates currently live
   in slot [i]; a mismatch means the slot's data belongs to a lapped,
   older bucket and reads as empty. *)
type ring = {
  resolution : float;
  inv_resolution : float;
  ring_slots : int;
  epochs : int array;  (* -1 = never written *)
  counts : float array;
  sums : float array;
  mins : float array;
  maxs : float array;
  lasts : float array;
}

type series = {
  s_name : string;
  s_kind : kind;
  rings : ring array;
  (* Counter state: the previous cumulative observation, NaN before the
     first one (whose increment is unknowable and therefore 0). *)
  mutable prev_raw : float;
}

type annotation = {
  a_time : float;
  a_kind : string;
  a_tenant : string option;
  a_detail : string;
}

type t = {
  tiers : tier list;
  by_name : (string, series) Hashtbl.t;
  mutable series_order : series list;  (* reversed interning order *)
  mutable max_time : float;
  (* Annotation ring: oldest overwritten first once full. *)
  ann : annotation option array;
  mutable ann_next : int;
  mutable ann_total : int;
}

let create ?(tiers = default_tiers) () =
  if tiers = [] then invalid_arg "Tsdb.create: no tiers";
  List.iter
    (fun (tr : tier) ->
      if tr.resolution <= 0. || not (Float.is_finite tr.resolution) then
        invalid_arg "Tsdb.create: tier resolution must be positive";
      if tr.slots <= 0 then invalid_arg "Tsdb.create: tier slots must be positive")
    tiers;
  let rec check : tier list -> unit = function
    | a :: (b :: _ as rest) ->
      if b.resolution <= a.resolution then
        invalid_arg "Tsdb.create: tiers must be ordered finest first";
      if
        b.resolution *. float_of_int b.slots
        < a.resolution *. float_of_int a.slots
      then invalid_arg "Tsdb.create: coarser tiers must retain at least as long";
      check rest
    | _ -> ()
  in
  check tiers;
  {
    tiers;
    by_name = Hashtbl.create 64;
    series_order = [];
    max_time = 0.;
    ann = Array.make 256 None;
    ann_next = 0;
    ann_total = 0;
  }

let make_ring (tr : tier) =
  {
    resolution = tr.resolution;
    inv_resolution = 1. /. tr.resolution;
    ring_slots = tr.slots;
    epochs = Array.make tr.slots (-1);
    counts = Array.make tr.slots 0.;
    sums = Array.make tr.slots 0.;
    mins = Array.make tr.slots 0.;
    maxs = Array.make tr.slots 0.;
    lasts = Array.make tr.slots 0.;
  }

let series t ~kind name =
  match Hashtbl.find_opt t.by_name name with
  | Some s ->
    if s.s_kind <> kind then
      invalid_arg
        (Printf.sprintf "Tsdb.series: %S already interned as a %s" name
           (kind_to_string s.s_kind));
    s
  | None ->
    let s =
      {
        s_name = name;
        s_kind = kind;
        rings = Array.of_list (List.map make_ring t.tiers);
        prev_raw = Float.nan;
      }
    in
    Hashtbl.add t.by_name name s;
    t.series_order <- s :: t.series_order;
    s

let observe t s ~time value =
  if not (Float.is_nan value) then begin
    let time = if time < 0. then 0. else time in
    if time > t.max_time then t.max_time <- time;
    (* Counters carry cumulative totals on the wire; history stores the
       per-observation increment, reset-aware: a shrinking total means
       the counter restarted, and the whole post-reset value is new. *)
    let v =
      match s.s_kind with
      | Gauge -> value
      | Counter ->
        let prev = s.prev_raw in
        s.prev_raw <- value;
        if Float.is_nan prev then 0.
        else if value >= prev then value -. prev
        else value
    in
    let rings = s.rings in
    for i = 0 to Array.length rings - 1 do
      let r = Array.unsafe_get rings i in
      let bucket = int_of_float (time *. r.inv_resolution) in
      let slot = bucket mod r.ring_slots in
      let epoch = Array.unsafe_get r.epochs slot in
      if epoch = bucket then begin
        Array.unsafe_set r.counts slot (Array.unsafe_get r.counts slot +. 1.);
        Array.unsafe_set r.sums slot (Array.unsafe_get r.sums slot +. v);
        if v < Array.unsafe_get r.mins slot then Array.unsafe_set r.mins slot v;
        if v > Array.unsafe_get r.maxs slot then Array.unsafe_set r.maxs slot v;
        Array.unsafe_set r.lasts slot v
      end
      else if epoch < bucket then begin
        (* Fresh bucket: recycle the slot.  A write into a bucket older
           than the slot's occupant (epoch > bucket) is stale history —
           dropped rather than clobbering newer data. *)
        Array.unsafe_set r.epochs slot bucket;
        Array.unsafe_set r.counts slot 1.;
        Array.unsafe_set r.sums slot v;
        Array.unsafe_set r.mins slot v;
        Array.unsafe_set r.maxs slot v;
        Array.unsafe_set r.lasts slot v
      end
    done
  end

(* One snapshot folds the entire registry into the store: every exported
   counter (cumulative, converted to increments above), every gauge, and
   the p50/p99/count of every histogram. *)
let snapshot t tel ~time =
  let obs kind name v = observe t (series t ~kind name) ~time v in
  List.iter
    (fun (name, v) -> obs Counter name (float_of_int v))
    (Telemetry.exported_counters tel);
  List.iter (fun (name, v) -> obs Gauge name v) (Telemetry.exported_gauges tel);
  List.iter
    (fun (name, h) ->
      let count = Telemetry.Histogram.count h in
      obs Counter (name ^ ".count") (float_of_int count);
      if count > 0 then begin
        obs Gauge (name ^ ".p50") (Telemetry.Histogram.quantile h 0.5);
        obs Gauge (name ^ ".p99") (Telemetry.Histogram.quantile h 0.99)
      end)
    (Telemetry.exported_histograms tel)

let names t =
  Hashtbl.fold (fun name s acc -> (name, s.s_kind) :: acc) t.by_name []
  |> List.sort compare

let series_count t = Hashtbl.length t.by_name

let last_time t = t.max_time

let per_series_bytes t =
  List.fold_left (fun acc (tr : tier) -> acc + (tr.slots * 6 * 8)) 0 t.tiers

let memory_bytes t = series_count t * per_series_bytes t

(* ------------------------------------------------------------------ *)
(* Range queries                                                      *)
(* ------------------------------------------------------------------ *)

type point = {
  p_count : int;
  p_sum : float;
  p_min : float;
  p_max : float;
  p_last : float;
}

type range = {
  r_name : string;
  r_kind : kind;
  r_start : float;
  r_step : float;
  r_points : point option array;
}

let max_points = 512

(* The serving tier: the finest one whose resolution does not exceed the
   requested step *and* whose retention window (counted back from the
   newest observation) still covers [start].  When nothing retains that
   far back, serve from the deepest-retention tier that fits the step —
   lapped buckets simply read as [None]. *)
let choose_ring t s ~start ~step =
  let now = t.max_time in
  let fits r = r.resolution <= step +. 1e-9 in
  let covers r =
    now -. (r.resolution *. float_of_int r.ring_slots) <= start +. 1e-9
  in
  let rings = Array.to_list s.rings in
  let fitting = List.filter fits rings in
  let fitting = if fitting = [] then [ List.hd rings ] else fitting in
  match List.find_opt covers fitting with
  | Some r -> r
  | None -> (
    (* No step-fitting tier retains that far back: escalate to the
       finest tier of any resolution that does (the step widens), else
       the deepest-retention tier. *)
    match List.find_opt covers rings with
    | Some r -> r
    | None -> List.nth rings (List.length rings - 1))

let query t ~name ~start ~stop ?step () =
  match Hashtbl.find_opt t.by_name name with
  | None -> None
  | Some s ->
    if not (stop > start) then None
    else begin
      let finest = s.rings.(0).resolution in
      let step = match step with Some v when v > 0. -> v | _ -> finest in
      let r = choose_ring t s ~start ~step in
      (* Round the step up to a whole number of tier buckets, then widen
         until the answer fits the hard cap. *)
      let per = max 1 (int_of_float (ceil (step /. r.resolution -. 1e-9))) in
      let span = stop -. start in
      let per =
        let needed bucket_step =
          int_of_float (ceil (span /. (bucket_step *. r.resolution) -. 1e-9))
        in
        let rec widen per = if needed (float_of_int per) > max_points then widen (per * 2) else per in
        widen per
      in
      let r_step = float_of_int per *. r.resolution in
      let r_start = Float.of_int (int_of_float (start /. r_step)) *. r_step in
      let n =
        max 1 (int_of_float (ceil ((stop -. r_start) /. r_step -. 1e-9)))
      in
      let n = min n max_points in
      let points = Array.make n None in
      for i = 0 to n - 1 do
        (* Merge the [per] tier buckets covering output bucket [i]. *)
        let first_bucket =
          int_of_float ((r_start +. (float_of_int i *. r_step)) /. r.resolution +. 0.5)
        in
        let acc = ref None in
        for j = 0 to per - 1 do
          let bucket = first_bucket + j in
          let slot = bucket mod r.ring_slots in
          if Array.unsafe_get r.epochs slot = bucket then begin
            let c = int_of_float r.counts.(slot) in
            let p =
              {
                p_count = c;
                p_sum = r.sums.(slot);
                p_min = r.mins.(slot);
                p_max = r.maxs.(slot);
                p_last = r.lasts.(slot);
              }
            in
            acc :=
              Some
                (match !acc with
                | None -> p
                | Some q ->
                  {
                    p_count = q.p_count + p.p_count;
                    p_sum = q.p_sum +. p.p_sum;
                    p_min = Float.min q.p_min p.p_min;
                    p_max = Float.max q.p_max p.p_max;
                    p_last = p.p_last;
                  })
          end
        done;
        points.(i) <- !acc
      done;
      Some { r_name = name; r_kind = s.s_kind; r_start; r_step; r_points = points }
    end

let pp_sums ppf r =
  let width = 40 in
  let sum = function Some p -> p.p_sum | None -> 0. in
  let pts = r.r_points in
  (* Render from the first to the last non-empty bucket. *)
  let empty i = Option.is_none pts.(i) in
  let rec first i =
    if i < Array.length pts && empty i then first (i + 1) else i
  in
  let rec last i = if i >= 0 && empty i then last (i - 1) else i in
  let lo = first 0 and hi = last (Array.length pts - 1) in
  if lo > hi then Format.pp_print_string ppf "(empty)"
  else begin
    let peak = ref 0. in
    for i = lo to hi do
      peak := Float.max !peak (sum pts.(i))
    done;
    Format.fprintf ppf "@[<v>";
    for i = lo to hi do
      let v = sum pts.(i) in
      let bar =
        if !peak <= 0. then 0
        else int_of_float (v /. !peak *. float_of_int width)
      in
      Format.fprintf ppf "%8.3f | %s %.3g@,"
        (r.r_start +. (float_of_int i *. r.r_step))
        (String.make bar '#') v
    done;
    Format.fprintf ppf "@]"
  end

(* ------------------------------------------------------------------ *)
(* Annotations                                                        *)
(* ------------------------------------------------------------------ *)

let annotate t ~time ~kind ?tenant ~detail () =
  let a = { a_time = time; a_kind = kind; a_tenant = tenant; a_detail = detail } in
  t.ann.(t.ann_next) <- Some a;
  t.ann_next <- (t.ann_next + 1) mod Array.length t.ann;
  t.ann_total <- t.ann_total + 1

let annotations ?(start = neg_infinity) ?(stop = infinity) t =
  (* Walk the ring oldest-first so the sort is stable for equal stamps. *)
  let cap = Array.length t.ann in
  let out = ref [] in
  for i = 0 to cap - 1 do
    match t.ann.((t.ann_next + i) mod cap) with
    | Some a when a.a_time >= start && a.a_time < stop -> out := a :: !out
    | _ -> ()
  done;
  List.stable_sort (fun a b -> Float.compare a.a_time b.a_time) (List.rev !out)

let annotations_total t = t.ann_total
