type t = {
  name : string;
  tag : now:float -> Packet.t -> int;
  on_dequeue : Packet.t -> unit;
}

let name t = t.name

let tag t ~now p =
  let r = t.tag ~now p in
  p.Packet.label <- r;
  p.Packet.rank <- r;
  r

let on_dequeue t p = t.on_dequeue p

let no_feedback = fun _ -> ()

let of_fn name tag = { name; tag; on_dequeue = no_feedback }

let pfabric ?(unit_bytes = 1000) () =
  if unit_bytes <= 0 then invalid_arg "Ranker.pfabric: unit_bytes <= 0";
  of_fn "pfabric" (fun ~now:_ p -> p.Packet.remaining / unit_bytes)

let edf ?(unit_seconds = 1e-6) ?horizon () =
  if unit_seconds <= 0. then invalid_arg "Ranker.edf: unit_seconds <= 0";
  let horizon_units =
    match horizon with
    | Some h when h <= 0. -> invalid_arg "Ranker.edf: horizon <= 0"
    | Some h -> int_of_float (h /. unit_seconds)
    | None -> int_of_float (10. /. unit_seconds)
  in
  let tag ~now p =
    let d = p.Packet.deadline in
    if d = infinity then horizon_units
    else begin
      let units = int_of_float ((d -. now) /. unit_seconds) in
      max 0 (min horizon_units units)
    end
  in
  of_fn "edf" tag

let stfq ?(weight = fun ~flow:_ -> 1.0) () =
  let unit_bytes = 1000 in
  (* Virtual time in weighted bytes; per-flow last finish tags. *)
  let virtual_time = ref 0. in
  let last_finish : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let tag ~now:_ p =
    let flow = p.Packet.flow in
    let w = weight ~flow in
    if w <= 0. then invalid_arg "Ranker.stfq: non-positive flow weight";
    let prev = Option.value (Hashtbl.find_opt last_finish flow) ~default:0. in
    let start = Float.max !virtual_time prev in
    Hashtbl.replace last_finish flow
      (start +. (float_of_int p.Packet.size /. w));
    (* Without dequeue feedback the virtual clock advances with the start
       tags it hands out, which keeps newly active flows from starving
       backlogged ones (the PIFO-paper STFQ formulation). *)
    virtual_time := Float.max !virtual_time start;
    int_of_float (start /. float_of_int unit_bytes)
  in
  let on_dequeue p =
    let served_start = float_of_int (p.Packet.rank * unit_bytes) in
    virtual_time := Float.max !virtual_time served_start
  in
  { name = "stfq"; tag; on_dequeue }

let fifo () =
  of_fn "fifo" (fun ~now:_ p -> int_of_float (p.Packet.created_at /. 1e-6))

let fifo_plus () =
  (* Per-flow age advantage: the first packet of a flow anchors the flow's
     offset; later packets are ranked as if they arrived at the anchor plus
     their in-flow spacing, which emulates FIFO+'s "rank by expected
     arrival at an unloaded queue". *)
  let anchors : (int, float) Hashtbl.t = Hashtbl.create 64 in
  let tag ~now:_ p =
    let flow = p.Packet.flow in
    let anchor =
      match Hashtbl.find_opt anchors flow with
      | Some a -> a
      | None ->
        Hashtbl.add anchors flow p.Packet.created_at;
        p.Packet.created_at
    in
    let expected = Float.max anchor p.Packet.created_at in
    int_of_float (expected /. 1e-6)
  in
  { name = "fifo+"; tag; on_dequeue = no_feedback }

let lstf ?(unit_seconds = 1e-6) ?(line_rate = 1e9) () =
  if unit_seconds <= 0. then invalid_arg "Ranker.lstf: unit_seconds <= 0";
  if line_rate <= 0. then invalid_arg "Ranker.lstf: line_rate <= 0";
  let tag ~now p =
    if p.Packet.deadline = infinity then max_int / 2
    else begin
      let tx_time = 8. *. float_of_int p.Packet.remaining /. line_rate in
      let slack = p.Packet.deadline -. now -. tx_time in
      max 0 (int_of_float (slack /. unit_seconds))
    end
  in
  of_fn "lstf" tag

let constant n = of_fn "constant" (fun ~now:_ _ -> n)

(* ------------------------------------------------------------------ *)
(* Multi-objective combinators                                        *)
(* ------------------------------------------------------------------ *)

(* Normalized component ranks span [0, resolution]. *)
let resolution = 1000

let normalized_component (ranker, (lo, hi), ()) ~now p =
  if lo > hi then invalid_arg "Ranker: empty component range";
  let raw = ranker.tag ~now p in
  let clamped = max lo (min hi raw) in
  if hi = lo then 0.
  else
    float_of_int (clamped - lo)
    /. float_of_int (hi - lo)
    *. float_of_int resolution

let weighted ~components () =
  if components = [] then invalid_arg "Ranker.weighted: no components";
  List.iter
    (fun ((_ : t), (lo, hi), w) ->
      if lo > hi then invalid_arg "Ranker.weighted: empty component range";
      if w <= 0. then invalid_arg "Ranker.weighted: non-positive weight")
    components;
  let total_weight = List.fold_left (fun acc (_, _, w) -> acc +. w) 0. components in
  let name =
    "weighted("
    ^ String.concat "," (List.map (fun (r, _, _) -> r.name) components)
    ^ ")"
  in
  let tag ~now p =
    let sum =
      List.fold_left
        (fun acc (r, range, w) ->
          acc +. (w *. normalized_component (r, range, ()) ~now p))
        0. components
    in
    int_of_float (sum /. total_weight)
  in
  let on_dequeue p = List.iter (fun (r, _, _) -> r.on_dequeue p) components in
  { name; tag; on_dequeue }

let lexicographic ~primary ~secondary () =
  let secondary_levels = 64 in
  let primary_ranker, primary_range = primary in
  let secondary_ranker, secondary_range = secondary in
  let name =
    Printf.sprintf "lex(%s,%s)" primary_ranker.name secondary_ranker.name
  in
  let tag ~now p =
    let prim =
      normalized_component (primary_ranker, primary_range, ()) ~now p
    in
    let sec =
      normalized_component (secondary_ranker, secondary_range, ())
        ~now p
    in
    let sec_level =
      min (secondary_levels - 1)
        (int_of_float (sec /. float_of_int resolution *. float_of_int secondary_levels))
    in
    (int_of_float prim * secondary_levels) + sec_level
  in
  let on_dequeue p =
    primary_ranker.on_dequeue p;
    secondary_ranker.on_dequeue p
  in
  { name; tag; on_dequeue }
