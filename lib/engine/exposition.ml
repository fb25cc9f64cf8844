type mtype = Counter | Gauge | Summary

let mtype_to_string = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Summary -> "summary"

type sample = {
  sample_name : string;
  labels : (string * string) list;
  value : float;
}

type family = {
  family_name : string;
  help : string;
  mtype : mtype;
  samples : sample list;
}

(* ------------------------------------------------------------------ *)
(* Identifiers, escaping, values                                      *)
(* ------------------------------------------------------------------ *)

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c = is_name_start c || (c >= '0' && c <= '9')

let is_label_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_label_char c = is_label_start c || (c >= '0' && c <= '9')

let valid_metric_name s =
  String.length s > 0
  && is_name_start s.[0]
  && String.for_all is_name_char s

let valid_label_name s =
  String.length s > 0
  && is_label_start s.[0]
  && String.for_all is_label_char s

let sanitize_name s =
  if s = "" then "_"
  else begin
    let b = Buffer.create (String.length s + 1) in
    if not (is_name_start s.[0]) && is_name_char s.[0] then
      Buffer.add_char b '_';
    String.iter (fun c -> Buffer.add_char b (if is_name_char c then c else '_')) s;
    Buffer.contents b
  end

let escape_label_value s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let escape_help s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let string_of_value v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let family ~name ~help mtype samples =
  if not (valid_metric_name name) then
    invalid_arg (Printf.sprintf "Exposition.family: invalid name %S" name);
  List.iter
    (fun s ->
      if not (valid_metric_name s.sample_name) then
        invalid_arg
          (Printf.sprintf "Exposition.family %s: invalid sample name %S" name
             s.sample_name);
      List.iter
        (fun (k, _) ->
          if not (valid_label_name k) then
            invalid_arg
              (Printf.sprintf "Exposition.family %s: invalid label name %S"
                 name k))
        s.labels)
    samples;
  { family_name = name; help; mtype; samples }

(* ------------------------------------------------------------------ *)
(* Dotted names -> families                                           *)
(* ------------------------------------------------------------------ *)

let is_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

(* [net.port.3.enqueue] -> name parts [net; port; enqueue] and label
   [("port", "3")]: a purely numeric component labels the component
   before it.  A leading numeric component has nothing to key on and
   stays in the name (sanitized). *)
let split_dotted ?(tenant_names = []) dotted =
  let components = String.split_on_char '.' dotted in
  let rec walk parts labels = function
    | [] -> (List.rev parts, List.rev labels)
    | num :: rest when is_digits num && parts <> [] ->
      let key = List.hd parts in
      let value =
        if key = "tenant" then
          match List.assoc_opt (int_of_string num) tenant_names with
          | Some name -> name
          | None -> num
        else num
      in
      walk parts ((key, value) :: labels) rest
    | c :: rest -> walk (sanitize_name c :: parts) labels rest
  in
  let parts, labels = walk [] [] components in
  (String.concat "_" parts, labels)

let base_name dotted_head = "qvisor_" ^ dotted_head

let with_total name =
  if String.length name >= 6 && String.sub name (String.length name - 6) 6 = "_total"
  then name
  else name ^ "_total"

(* Accumulate samples under their family, keeping first-appearance order
   (inputs arrive name-sorted, so output is deterministic). *)
type builder = {
  mutable order : string list; (* reversed *)
  tbl : (string, string * mtype * sample list ref) Hashtbl.t;
}

let builder () = { order = []; tbl = Hashtbl.create 32 }

let add_sample b ~name ~help ~mtype s =
  match Hashtbl.find_opt b.tbl name with
  | Some (_, t, samples) when t = mtype -> samples := s :: !samples
  | Some _ ->
    (* Same collapsed name, different kind: disambiguate rather than
       emit a malformed family. *)
    let name' = name ^ "_" ^ mtype_to_string mtype in
    (match Hashtbl.find_opt b.tbl name' with
    | Some (_, _, samples) -> samples := s :: !samples
    | None ->
      b.order <- name' :: b.order;
      Hashtbl.add b.tbl name' (help, mtype, ref [ s ]))
  | None ->
    b.order <- name :: b.order;
    Hashtbl.add b.tbl name (help, mtype, ref [ s ])

let finish b =
  List.rev b.order
  |> List.map (fun name ->
         let help, mtype, samples = Hashtbl.find b.tbl name in
         family ~name ~help mtype (List.rev !samples))
  |> List.sort (fun a b -> compare a.family_name b.family_name)

(* Help text: the dotted name with numeric components generalized, so
   [net.port.0.drop] and [net.port.1.drop] share one help line. *)
let generalize dotted =
  String.split_on_char '.' dotted
  |> List.map (fun c -> if is_digits c then "*" else c)
  |> String.concat "."

let quantile_labels = [ 0.5; 0.9; 0.99 ]

let families_of_registry ?tenant_names tel =
  let b = builder () in
  let collapse dotted =
    let head, labels = split_dotted ?tenant_names dotted in
    (base_name head, labels)
  in
  List.iter
    (fun (dotted, v) ->
      let name, labels = collapse dotted in
      let name = with_total name in
      add_sample b ~name ~help:(generalize dotted) ~mtype:Counter
        { sample_name = name; labels; value = float_of_int v })
    (Telemetry.exported_counters tel);
  List.iter
    (fun (dotted, v) ->
      let name, labels = collapse dotted in
      add_sample b ~name ~help:(generalize dotted) ~mtype:Gauge
        { sample_name = name; labels; value = v })
    (Telemetry.exported_gauges tel);
  List.iter
    (fun (dotted, h) ->
      let name, labels = collapse dotted in
      let help = generalize dotted in
      List.iter
        (fun q ->
          add_sample b ~name ~help ~mtype:Summary
            {
              sample_name = name;
              labels = labels @ [ ("quantile", string_of_value q) ];
              value = Telemetry.Histogram.quantile h q;
            })
        quantile_labels;
      add_sample b ~name ~help ~mtype:Summary
        {
          sample_name = name ^ "_sum";
          labels;
          value = Telemetry.Histogram.sum h;
        };
      add_sample b ~name ~help ~mtype:Summary
        {
          sample_name = name ^ "_count";
          labels;
          value = float_of_int (Telemetry.Histogram.count h);
        })
    (Telemetry.exported_histograms tel);
  finish b

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let header = "# qvisor text exposition"

let render_sample buf s =
  Buffer.add_string buf s.sample_name;
  (match s.labels with
  | [] -> ()
  | labels ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        Buffer.add_string buf (escape_label_value v);
        Buffer.add_char buf '"')
      labels;
    Buffer.add_char buf '}');
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_value s.value);
  Buffer.add_char buf '\n'

let render_families families =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "# HELP %s %s\n" f.family_name (escape_help f.help));
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" f.family_name
           (mtype_to_string f.mtype));
      List.iter (render_sample buf) f.samples)
    families;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* Wall-clock scrape stamps must never run backwards (NTP steps, frozen
   test clocks): clamp to the highest value handed out so far. *)
let last_scrape_stamp = ref neg_infinity

let scrape_timestamp_family () =
  let stamp = Float.max !last_scrape_stamp (Unix.gettimeofday ()) in
  last_scrape_stamp := stamp;
  let name = base_name "scrape_timestamp_seconds" in
  family ~name ~help:"wall-clock time of this render (monotonic per process)"
    Gauge
    [ { sample_name = name; labels = []; value = stamp } ]

let render ?tenant_names tel =
  render_families
    (families_of_registry ?tenant_names tel @ [ scrape_timestamp_family () ])

(* ------------------------------------------------------------------ *)
(* Strict parser                                                      *)
(* ------------------------------------------------------------------ *)

type line =
  | Help of { name : string; text : string }
  | Type of { name : string; mtype : mtype }
  | Sample of sample
  | Comment of string
  | Blank

let mtype_of_string = function
  | "counter" -> Some Counter
  | "gauge" -> Some Gauge
  | "summary" -> Some Summary
  | _ -> None

let unescape_help s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then Ok (Buffer.contents b)
    else if s.[i] = '\\' then
      if i + 1 >= n then Error "dangling backslash in help text"
      else begin
        (match s.[i + 1] with
        | '\\' -> Buffer.add_char b '\\'
        | 'n' -> Buffer.add_char b '\n'
        | c -> Buffer.add_char b c);
        go (i + 2)
      end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0

let value_of_string s =
  match s with
  | "NaN" -> Ok Float.nan
  | "+Inf" -> Ok infinity
  | "-Inf" -> Ok neg_infinity
  | s -> (
    match float_of_string_opt s with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "invalid sample value %S" s))

let ( let* ) = Result.bind

(* name '{' k="v" (',' k="v")* '}' — strict: no interior whitespace. *)
let parse_labels s pos =
  let n = String.length s in
  let rec pairs acc pos =
    let start = pos in
    let pos = ref pos in
    while !pos < n && is_label_char s.[!pos] do
      incr pos
    done;
    let key = String.sub s start (!pos - start) in
    if not (valid_label_name key) then
      Error (Printf.sprintf "invalid label name %S" key)
    else if !pos + 1 >= n || s.[!pos] <> '=' || s.[!pos + 1] <> '"' then
      Error "expected =\" after label name"
    else begin
      let b = Buffer.create 16 in
      let pos = ref (!pos + 2) in
      let err = ref None in
      let closed = ref false in
      while (not !closed) && !err = None && !pos < n do
        match s.[!pos] with
        | '"' ->
          closed := true;
          incr pos
        | '\\' ->
          if !pos + 1 >= n then err := Some "dangling backslash in label value"
          else begin
            (match s.[!pos + 1] with
            | '\\' -> Buffer.add_char b '\\'
            | '"' -> Buffer.add_char b '"'
            | 'n' -> Buffer.add_char b '\n'
            | c ->
              err :=
                Some (Printf.sprintf "invalid escape \\%c in label value" c));
            pos := !pos + 2
          end
        | '\n' -> err := Some "raw newline in label value"
        | c ->
          Buffer.add_char b c;
          incr pos
      done;
      match !err with
      | Some e -> Error e
      | None ->
        if not !closed then Error "unterminated label value"
        else
          let acc = (key, Buffer.contents b) :: acc in
          if !pos < n && s.[!pos] = ',' then pairs acc (!pos + 1)
          else if !pos < n && s.[!pos] = '}' then Ok (List.rev acc, !pos + 1)
          else Error "expected , or } after label value"
    end
  in
  pairs [] pos

let parse_sample s =
  let n = String.length s in
  let pos = ref 0 in
  while !pos < n && is_name_char s.[!pos] do
    incr pos
  done;
  let name = String.sub s 0 !pos in
  if not (valid_metric_name name) then
    Error (Printf.sprintf "invalid metric name at %S" s)
  else
    let* labels, pos =
      if !pos < n && s.[!pos] = '{' then parse_labels s (!pos + 1)
      else Ok ([], !pos)
    in
    if pos >= n || s.[pos] <> ' ' then
      Error "expected single space before sample value"
    else
      let rest = String.sub s (pos + 1) (n - pos - 1) in
      if rest = "" || String.contains rest ' ' then
        Error "expected exactly one value after the space"
      else
        let* value = value_of_string rest in
        Ok (Sample { sample_name = name; labels; value })

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let parse_line s =
  if s = "" then Ok Blank
  else if starts_with ~prefix:"# HELP " s then begin
    let rest = String.sub s 7 (String.length s - 7) in
    let name, text =
      match String.index_opt rest ' ' with
      | Some i ->
        ( String.sub rest 0 i,
          String.sub rest (i + 1) (String.length rest - i - 1) )
      | None -> (rest, "")
    in
    if not (valid_metric_name name) then
      Error (Printf.sprintf "HELP: invalid metric name %S" name)
    else
      let* text = unescape_help text in
      Ok (Help { name; text })
  end
  else if starts_with ~prefix:"# TYPE " s then begin
    let rest = String.sub s 7 (String.length s - 7) in
    match String.split_on_char ' ' rest with
    | [ name; kind ] -> (
      if not (valid_metric_name name) then
        Error (Printf.sprintf "TYPE: invalid metric name %S" name)
      else
        match mtype_of_string kind with
        | Some mtype -> Ok (Type { name; mtype })
        | None -> Error (Printf.sprintf "TYPE: unknown metric type %S" kind))
    | _ -> Error "TYPE: expected '# TYPE <name> <type>'"
  end
  else if s.[0] = '#' then
    Ok (Comment (String.sub s 1 (String.length s - 1)))
  else parse_sample s

let render_line = function
  | Blank -> ""
  | Comment text -> "#" ^ text
  | Help { name; text } ->
    Printf.sprintf "# HELP %s %s" name (escape_help text)
  | Type { name; mtype } ->
    Printf.sprintf "# TYPE %s %s" name (mtype_to_string mtype)
  | Sample s ->
    let buf = Buffer.create 64 in
    render_sample buf s;
    (* render_sample terminates the line; lines here carry no newline. *)
    String.sub (Buffer.contents buf) 0 (Buffer.length buf - 1)

(* Strip a known suffix, or return the name unchanged. *)
let strip_suffix name suffix =
  let n = String.length name and k = String.length suffix in
  if n > k && String.sub name (n - k) k = suffix then
    Some (String.sub name 0 (n - k))
  else None

let parse text =
  let lines = String.split_on_char '\n' text in
  (* A trailing newline yields one empty final chunk, which is an
     artifact of the split, not a Blank line of the document. *)
  let lines =
    match List.rev lines with
    | "" :: rest -> List.rev rest
    | _ -> lines
  in
  let types : (string, mtype) Hashtbl.t = Hashtbl.create 32 in
  let helps : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  let family_of name =
    match Hashtbl.find_opt types name with
    | Some t -> Some (name, t)
    | None -> (
      let via suffix =
        match strip_suffix name suffix with
        | Some base -> (
          match Hashtbl.find_opt types base with
          | Some Summary -> Some (base, Summary)
          | _ -> None)
        | None -> None
      in
      match via "_sum" with Some f -> Some f | None -> via "_count")
  in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | raw :: rest -> (
      match parse_line raw with
      | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
      | Ok line -> (
        let continue () = go (line :: acc) (lineno + 1) rest in
        match line with
        | Comment " EOF" ->
          if rest <> [] then
            Error (Printf.sprintf "line %d: content after # EOF" (lineno + 1))
          else continue ()
        | Help { name; _ } ->
          if Hashtbl.mem helps name then
            Error (Printf.sprintf "line %d: duplicate HELP for %s" lineno name)
          else begin
            Hashtbl.add helps name ();
            continue ()
          end
        | Type { name; mtype } ->
          if Hashtbl.mem types name then
            Error (Printf.sprintf "line %d: duplicate TYPE for %s" lineno name)
          else begin
            Hashtbl.add types name mtype;
            continue ()
          end
        | Sample s -> (
          match family_of s.sample_name with
          | None ->
            Error
              (Printf.sprintf "line %d: sample %s has no preceding # TYPE"
                 lineno s.sample_name)
          | Some (base, mtype) ->
            let has_quantile = List.mem_assoc "quantile" s.labels in
            if has_quantile && (mtype <> Summary || base <> s.sample_name)
            then
              Error
                (Printf.sprintf
                   "line %d: quantile label outside a summary sample" lineno)
            else continue ())
        | Comment _ | Blank -> continue ()))
  in
  go [] 1 lines
