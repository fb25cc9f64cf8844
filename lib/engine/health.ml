type state = Healthy | Degraded | Violating

type signal = Pass | Warn | Breach

let state_to_string = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Violating -> "violating"

(* Strike thresholds: [Degraded] from two, [Violating] from four. *)
let degraded_strikes = 2
let violating_strikes = 4

type subject = {
  name : string;
  mutable strikes : int;
  mutable current : state;
}

type transition = {
  tr_id : int;
  tr_name : string;
  tr_time : float;
  tr_source : string;
  tr_detail : string;
  tr_from : state;
  tr_to : state;
}

type t = {
  alerts : out_channel option;
  on_transition : (transition -> unit) option;
  subjects : (int, subject) Hashtbl.t;
  mutable transitions : int;
}

let create ?alerts ?on_transition () =
  { alerts; on_transition; subjects = Hashtbl.create 8; transitions = 0 }

let watch t ~id ~name =
  Hashtbl.replace t.subjects id { name; strikes = 0; current = Healthy }

let unwatch t ~id = Hashtbl.remove t.subjects id

let state_of_strikes strikes =
  if strikes >= violating_strikes then Violating
  else if strikes >= degraded_strikes then Degraded
  else Healthy

let emit_alert t ~id ~time ~source ~detail subject ~from ~to_ =
  t.transitions <- t.transitions + 1;
  (match t.on_transition with
  | None -> ()
  | Some f ->
    f
      {
        tr_id = id;
        tr_name = subject.name;
        tr_time = time;
        tr_source = source;
        tr_detail = detail;
        tr_from = from;
        tr_to = to_;
      });
  match t.alerts with
  | None -> ()
  | Some oc ->
    let line =
      Json.Obj
        [
          ("t", Json.Number time);
          ("id", Json.Number (float_of_int id));
          ("name", Json.String subject.name);
          ("from", Json.String (state_to_string from));
          ("to", Json.String (state_to_string to_));
          ("source", Json.String source);
          ("detail", Json.String detail);
        ]
    in
    output_string oc (Json.to_string line);
    output_char oc '\n';
    (* Flushed per transition: alerts are rare by construction, and a
       crashing run must still leave its stream behind. *)
    flush oc

let observe t ~id ~time ?(source = "health") ?(detail = "") signal =
  match Hashtbl.find_opt t.subjects id with
  | None -> ()
  | Some s ->
    (match signal with
    | Pass -> s.strikes <- max 0 (s.strikes - 1)
    | Warn -> s.strikes <- s.strikes + 1
    | Breach -> s.strikes <- s.strikes + 2);
    let next = state_of_strikes s.strikes in
    if next <> s.current then begin
      let from = s.current in
      s.current <- next;
      emit_alert t ~id ~time ~source ~detail s ~from ~to_:next
    end

let state t ~id =
  match Hashtbl.find_opt t.subjects id with
  | None -> Healthy
  | Some s -> s.current

let states t =
  Hashtbl.fold (fun id s acc -> (id, s.name, s.current) :: acc) t.subjects []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let severity = function Healthy -> 0 | Degraded -> 1 | Violating -> 2

let worst t =
  Hashtbl.fold
    (fun _ s acc -> if severity s.current > severity acc then s.current else acc)
    t.subjects Healthy

let alerts_emitted t = t.transitions
