type event = Recorder.event

let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents ->
    let lines = String.split_on_char '\n' contents in
    let rec go lineno acc = function
      | [] -> Ok (List.rev acc)
      | line :: rest ->
        if String.trim line = "" then go (lineno + 1) acc rest
        else (
          match Result.bind (Json.of_string line) Recorder.event_of_json with
          | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
          | Ok e -> go (lineno + 1) (e :: acc) rest)
    in
    go 1 [] lines

let field_matches filter field =
  match filter with None -> true | Some want -> field >= 0 && field = want

let matches ?uid ?flow ?tenant (e : event) =
  field_matches uid e.uid
  && field_matches flow e.flow
  && field_matches tenant e.tenant

let lineage ?uid ?flow ?tenant events =
  let kept = List.filter (matches ?uid ?flow ?tenant) events in
  (* Stable, so same-time stages of one packet keep file order
     (preprocess before enqueue). *)
  List.stable_sort
    (fun (a : event) (b : event) ->
      match (a.uid >= 0, b.uid >= 0) with
      | true, true when a.uid <> b.uid -> compare a.uid b.uid
      | true, false -> -1
      | false, true -> 1
      | _ -> compare a.time b.time)
    kept

let pp_event ppf (e : event) =
  Format.fprintf ppf "t=%-10.6f %-12s" e.time (Recorder.kind_to_string e.kind);
  if e.link >= 0 then Format.fprintf ppf "  link=%d" e.link;
  if e.rank >= 0 then
    if e.rank_before >= 0 && e.rank_before <> e.rank then
      Format.fprintf ppf "  rank %d -> %d" e.rank_before e.rank
    else Format.fprintf ppf "  rank=%d" e.rank
  else if e.rank_before >= 0 then
    Format.fprintf ppf "  rank_before=%d" e.rank_before

let pp_lineage ppf events =
  (* Partition into per-uid journeys, preserving lineage order. *)
  let groups : (int, event list ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (e : event) ->
      match Hashtbl.find_opt groups e.uid with
      | Some r -> r := e :: !r
      | None ->
        Hashtbl.add groups e.uid (ref [ e ]);
        order := e.uid :: !order)
    events;
  let first = ref true in
  List.iter
    (fun uid ->
      let evs = List.rev !(Hashtbl.find groups uid) in
      if not !first then Format.fprintf ppf "@,";
      first := false;
      let head = List.hd evs in
      Format.fprintf ppf "@[<v 2>packet %s"
        (if uid >= 0 then Printf.sprintf "uid=%d" uid else "uid=?");
      (match (head.tenant >= 0, head.flow >= 0) with
      | true, true ->
        Format.fprintf ppf " (tenant %d, flow %d)" head.tenant head.flow
      | true, false -> Format.fprintf ppf " (tenant %d)" head.tenant
      | false, true -> Format.fprintf ppf " (flow %d)" head.flow
      | false, false -> ());
      Format.fprintf ppf ": %d event%s" (List.length evs)
        (if List.length evs = 1 then "" else "s");
      List.iter (fun e -> Format.fprintf ppf "@,%a" pp_event e) evs;
      Format.fprintf ppf "@]")
    (List.rev !order)
