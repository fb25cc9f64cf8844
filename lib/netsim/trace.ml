type flow_spec = {
  start : float;
  src : int;
  dst : int;
  size : int;
  tenant : int;
}

let to_string specs =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# start_time src dst size_bytes tenant\n";
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "%.9f %d %d %d %d\n" f.start f.src f.dst f.size
           f.tenant))
    specs;
  Buffer.contents buf

let is_ws = function ' ' | '\t' | '\r' -> true | _ -> false

(* Split on runs of any whitespace, so tab-separated (or CRLF) trace
   files parse the same as space-separated ones. *)
let split_ws s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_ws s.[i] then go (i + 1) acc
    else begin
      let j = ref i in
      while !j < n && not (is_ws s.[!j]) do
        incr j
      done;
      go !j (String.sub s i (!j - i) :: acc)
    end
  in
  go 0 []

let parse_line lineno line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let fields = split_ws line in
  match fields with
  | [] -> Ok None
  | [ start; src; dst; size; tenant ] -> (
    try
      Ok
        (Some
           {
             start = float_of_string start;
             src = int_of_string src;
             dst = int_of_string dst;
             size = int_of_string size;
             tenant = int_of_string tenant;
           })
    with Failure _ -> Error (Printf.sprintf "line %d: malformed field" lineno))
  | _ -> Error (Printf.sprintf "line %d: expected 5 fields" lineno)

let of_string s =
  let lines = String.split_on_char '\n' s in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match parse_line lineno line with
      | Error e -> Error e
      | Ok None -> go (lineno + 1) acc rest
      | Ok (Some f) ->
        if f.size <= 0 then
          Error (Printf.sprintf "line %d: non-positive size" lineno)
        else if f.start < 0. then
          Error (Printf.sprintf "line %d: negative start time" lineno)
        else if f.src = f.dst then
          Error (Printf.sprintf "line %d: src = dst" lineno)
        else go (lineno + 1) (f :: acc) rest)
  in
  go 1 [] lines

let save path specs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string specs))

let load path =
  match
    In_channel.with_open_text path (fun ic -> In_channel.input_all ic)
  with
  | contents -> of_string contents
  | exception Sys_error e -> Error e

let synthesize ~rng ~dist ~num_hosts ~load ~access_rate ~tenant ~until =
  if num_hosts < 2 then invalid_arg "Trace.synthesize: < 2 hosts";
  if load <= 0. then invalid_arg "Trace.synthesize: load <= 0";
  let mean_size = Engine.Rng.Empirical.mean dist in
  let rate =
    Workload.flow_arrival_rate ~load ~num_hosts ~access_rate
      ~mean_flow_size:mean_size
  in
  let rec go now acc =
    let now = now +. Engine.Rng.exponential rng ~mean:(1. /. rate) in
    if now >= until then List.rev acc
    else begin
      let src, dst = Engine.Rng.pair_distinct rng ~n:num_hosts in
      let size = max 1 (int_of_float (Engine.Rng.Empirical.sample dist rng)) in
      go now ({ start = now; src; dst; size; tenant } :: acc)
    end
  in
  go 0. []

let replay ~sim ~transport ~ranker_of_tenant ~on_complete specs =
  List.iter
    (fun f ->
      ignore
        (Engine.Sim.schedule_at sim ~time:f.start (fun () ->
             ignore
               (Transport.start_flow transport ~tenant:f.tenant
                  ~ranker:(ranker_of_tenant f.tenant) ~src:f.src ~dst:f.dst
                  ~size:f.size ~on_complete ()))))
    specs
