type kind = Enqueue | Dequeue | Drop | Evict | Preprocess

let kind_to_string = function
  | Enqueue -> "enqueue"
  | Dequeue -> "dequeue"
  | Drop -> "drop"
  | Evict -> "evict"
  | Preprocess -> "preprocess"

type event = {
  time : float;
  kind : kind;
  uid : int;
  link : int;
  tenant : int;
  flow : int;
  rank_before : int;
  rank : int;
}

let kind_to_char = function
  | Enqueue -> '\000'
  | Dequeue -> '\001'
  | Drop -> '\002'
  | Evict -> '\003'
  | Preprocess -> '\004'

let kind_of_char = function
  | '\000' -> Enqueue
  | '\001' -> Dequeue
  | '\002' -> Drop
  | '\003' -> Evict
  | _ -> Preprocess

(* The ring stores events as unboxed scalars rather than an
   [event array]: recording is then pure scalar stores, and the ring
   retains no heap blocks — a boxed ring would promote every recorded
   event to the major heap (the ring outlives minor collections) and the
   resulting GC churn dominates an allocation-heavy simulation.  Rows are
   kept compact (32 bytes: uid, the two ranks, and one word packing
   kind/link/tenant/flow into bitfields) because the recorder's cost at
   simulation rates is store bandwidth, not instructions — halving the
   row halves the cache lines each event dirties. *)

let fields_per_event = 4 (* uid rank_before rank meta *)

(* [meta] word: bits 0-2 kind, 3-22 link+1, 23-42 tenant+1, 43-62 flow+1
   (the +1 maps the [-1] "unknown" sentinel to 0; ids are masked to 20
   bits, far above any simulated port or tenant count). *)
let id_mask = 0xFFFFF

let[@inline] pack_meta ~kind_code ~link ~tenant ~flow =
  kind_code
  lor (((link + 1) land id_mask) lsl 3)
  lor (((tenant + 1) land id_mask) lsl 23)
  lor (((flow + 1) land id_mask) lsl 43)

type t = {
  times : float array; (* [[||]] for [disabled] *)
  fields : int array; (* [capacity * fields_per_event], row-major *)
  mutable next : int; (* slot the next event lands in *)
  mutable seen : int;
}

let create ?(capacity = 512) () =
  if capacity < 1 then invalid_arg "Recorder.create: capacity < 1";
  {
    times = Array.make capacity 0.;
    fields = Array.make (capacity * fields_per_event) (-1);
    next = 0;
    seen = 0;
  }

let disabled = { times = [||]; fields = [||]; next = 0; seen = 0 }

let is_enabled t = Array.length t.times > 0

let capacity t = Array.length t.times

let length t = min t.seen (Array.length t.times)

let seen t = t.seen

let[@inline] record t ~time ~kind ~uid ~link ~tenant ~flow ~rank_before ~rank =
  let cap = Array.length t.times in
  if cap > 0 then begin
    let i = t.next in
    Array.unsafe_set t.times i time;
    let r = i * fields_per_event in
    Array.unsafe_set t.fields r uid;
    Array.unsafe_set t.fields (r + 1) rank_before;
    Array.unsafe_set t.fields (r + 2) rank;
    Array.unsafe_set t.fields (r + 3)
      (pack_meta
         ~kind_code:(Char.code (kind_to_char kind))
         ~link ~tenant ~flow);
    t.next <- (if i + 1 = cap then 0 else i + 1);
    t.seen <- t.seen + 1
  end

let clear t =
  t.next <- 0;
  t.seen <- 0

let to_list t =
  let cap = Array.length t.times in
  let n = length t in
  (* Oldest event sits at [next - n] (mod cap). *)
  List.init n (fun i ->
      let j = (((t.next - n + i) mod cap) + cap) mod cap in
      let r = j * fields_per_event in
      let meta = t.fields.(r + 3) in
      {
        time = t.times.(j);
        kind = kind_of_char (Char.chr (meta land 7));
        uid = t.fields.(r);
        link = ((meta lsr 3) land id_mask) - 1;
        tenant = ((meta lsr 23) land id_mask) - 1;
        flow = ((meta lsr 43) land id_mask) - 1;
        rank_before = t.fields.(r + 1);
        rank = t.fields.(r + 2);
      })

let kind_of_string = function
  | "enqueue" -> Some Enqueue
  | "dequeue" -> Some Dequeue
  | "drop" -> Some Drop
  | "evict" -> Some Evict
  | "preprocess" -> Some Preprocess
  | _ -> None

let event_to_json ev =
  let opt name v rest =
    if v < 0 then rest else (name, Json.Number (float_of_int v)) :: rest
  in
  Json.Obj
    (("t", Json.Number ev.time)
    :: ("ev", Json.String (kind_to_string ev.kind))
    :: opt "uid" ev.uid
         (opt "link" ev.link
            (opt "tenant" ev.tenant
               (opt "flow" ev.flow
                  (opt "rank_before" ev.rank_before (opt "rank" ev.rank []))))))

let event_of_json json =
  let ( let* ) = Result.bind in
  let int_field name =
    match Json.member name json with
    | None -> Ok (-1)
    | Some v -> (
      match Json.to_int v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "field %S is not an integer" name))
  in
  let* time =
    match Option.bind (Json.member "t" json) Json.to_float with
    | Some t -> Ok t
    | None -> Error "missing numeric field \"t\""
  in
  let* kind =
    match Option.bind (Json.member "ev" json) Json.to_str with
    | None -> Error "missing string field \"ev\""
    | Some s -> (
      match kind_of_string s with
      | Some k -> Ok k
      | None -> Error (Printf.sprintf "unknown event kind %S" s))
  in
  let* uid = int_field "uid" in
  let* link = int_field "link" in
  let* tenant = int_field "tenant" in
  let* flow = int_field "flow" in
  let* rank_before = int_field "rank_before" in
  let* rank = int_field "rank" in
  Ok { time; kind; uid; link; tenant; flow; rank_before; rank }

let dump t oc =
  List.iter
    (fun ev ->
      output_string oc (Json.to_string (event_to_json ev));
      output_char oc '\n')
    (to_list t);
  flush oc

(* ------------------------------------------------------------------ *)
(* Anomaly trigger                                                    *)
(* ------------------------------------------------------------------ *)

module Trigger = struct
  type t = {
    window : int;
    fire_at : int; (* drops in a full window that trip the trigger *)
    cooldown : int;
    outcomes : Bytes.t; (* circular: 1 = dropped *)
    mutable pos : int;
    mutable filled : int; (* observations so far, saturating at window *)
    mutable drops_in_window : int;
    mutable cooldown_left : int;
    mutable fired : int;
  }

  let create ?(window = 128) ?threshold ?cooldown () =
    let threshold = Option.value threshold ~default:0.5 in
    let cooldown = Option.value cooldown ~default:window in
    if window < 1 then invalid_arg "Recorder.Trigger.create: window < 1";
    if cooldown < 0 then invalid_arg "Recorder.Trigger.create: cooldown < 0";
    if threshold <= 0. || threshold > 1. then
      invalid_arg "Recorder.Trigger.create: threshold outside (0, 1]";
    {
      window;
      fire_at =
        Float.to_int (Float.ceil (threshold *. float_of_int window))
        |> Int.max 1;
      cooldown;
      outcomes = Bytes.make window '\000';
      pos = 0;
      filled = 0;
      drops_in_window = 0;
      cooldown_left = 0;
      fired = 0;
    }

  let[@inline] observe t ~dropped =
    (* Evict the outcome leaving the window, admit the new one.
       [pos < window] by construction, so unsafe access is fine. *)
    if t.filled = t.window then begin
      if Bytes.unsafe_get t.outcomes t.pos = '\001' then
        t.drops_in_window <- t.drops_in_window - 1
    end
    else t.filled <- t.filled + 1;
    Bytes.unsafe_set t.outcomes t.pos (if dropped then '\001' else '\000');
    if dropped then t.drops_in_window <- t.drops_in_window + 1;
    t.pos <- (if t.pos + 1 = t.window then 0 else t.pos + 1);
    if t.cooldown_left > 0 then begin
      t.cooldown_left <- t.cooldown_left - 1;
      false
    end
    else if t.filled = t.window && t.drops_in_window >= t.fire_at then begin
      t.fired <- t.fired + 1;
      t.cooldown_left <- t.cooldown;
      true
    end
    else false

  let force t =
    if t.cooldown_left > 0 then false
    else begin
      t.fired <- t.fired + 1;
      t.cooldown_left <- t.cooldown;
      true
    end

  let fired t = t.fired
end
