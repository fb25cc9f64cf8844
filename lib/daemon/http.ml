type request = { meth : string; target : string }

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec matches i k = k = n || (haystack.[i + k] = needle.[k] && matches i (k + 1)) in
  let rec at i = i + n <= h && (matches i 0 || at (i + 1)) in
  n > 0 && at 0

let head_complete buf = contains ~needle:"\r\n\r\n" buf || contains ~needle:"\n\n" buf

let parse_request head =
  let line =
    match String.index_opt head '\n' with
    | None -> head
    | Some i -> String.sub head 0 i
  in
  let line =
    if line <> "" && line.[String.length line - 1] = '\r' then
      String.sub line 0 (String.length line - 1)
    else line
  in
  match String.split_on_char ' ' line with
  | [ meth; target; version ]
    when String.length version >= 7 && String.sub version 0 7 = "HTTP/1." ->
    Ok { meth; target }
  | _ -> Error (Printf.sprintf "malformed request line %S" line)

let percent_decode s =
  let n = String.length s in
  let buf = Buffer.create n in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let rec go i =
    if i < n then
      match s.[i] with
      | '%' when i + 2 < n -> (
        match (hex s.[i + 1], hex s.[i + 2]) with
        | Some hi, Some lo ->
          Buffer.add_char buf (Char.chr ((hi * 16) + lo));
          go (i + 3)
        | _ ->
          Buffer.add_char buf '%';
          go (i + 1))
      | '+' ->
        Buffer.add_char buf ' ';
        go (i + 1)
      | c ->
        Buffer.add_char buf c;
        go (i + 1)
  in
  go 0;
  Buffer.contents buf

let split_target target =
  match String.index_opt target '?' with
  | None -> (target, [])
  | Some q ->
    let path = String.sub target 0 q in
    let rest = String.sub target (q + 1) (String.length target - q - 1) in
    let params =
      String.split_on_char '&' rest
      |> List.filter_map (fun kv ->
             if kv = "" then None
             else
               match String.index_opt kv '=' with
               | None -> Some (percent_decode kv, "")
               | Some e ->
                 Some
                   ( percent_decode (String.sub kv 0 e),
                     percent_decode
                       (String.sub kv (e + 1) (String.length kv - e - 1)) ))
    in
    (path, params)

let response ?(status = 200) ?(reason = "OK")
    ?(content_type = "text/plain; version=0.0.4; charset=utf-8") body =
  Printf.sprintf
    "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status reason content_type (String.length body) body

let not_found =
  response ~status:404 ~reason:"Not Found" ~content_type:"text/plain"
    "not found\n"

let method_not_allowed =
  response ~status:405 ~reason:"Method Not Allowed" ~content_type:"text/plain"
    "only GET is served\n"

let bad_request err =
  response ~status:400 ~reason:"Bad Request" ~content_type:"text/plain"
    (err ^ "\n")

(* ------------------------------------------------------------------ *)
(* A blocking one-shot client, for qvisor-cli top/report polling the  *)
(* daemon's own surface.  Connection-close protocol: read to EOF.     *)
(* ------------------------------------------------------------------ *)

let split_head_body raw =
  let find needle =
    let n = String.length needle and h = String.length raw in
    let rec at i = if i + n > h then None else if String.sub raw i n = needle then Some i else at (i + 1) in
    at 0
  in
  match find "\r\n\r\n" with
  | Some i -> (String.sub raw 0 i, String.sub raw (i + 4) (String.length raw - i - 4))
  | None -> (
    match find "\n\n" with
    | Some i ->
      (String.sub raw 0 i, String.sub raw (i + 2) (String.length raw - i - 2))
    | None -> (raw, ""))

let parse_status head =
  match String.split_on_char ' ' head with
  | _ :: code :: _ -> ( try int_of_string code with _ -> 0)
  | _ -> 0

let get ?(host = "127.0.0.1") ~port target =
  match
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
        let req =
          Printf.sprintf "GET %s HTTP/1.1\r\nHost: %s:%d\r\nConnection: close\r\n\r\n"
            target host port
        in
        let rec send off =
          if off < String.length req then
            send (off + Unix.write_substring fd req off (String.length req - off))
        in
        send 0;
        let buf = Bytes.create 65536 in
        let out = Buffer.create 4096 in
        let rec drain () =
          let n = Unix.read fd buf 0 (Bytes.length buf) in
          if n > 0 then begin
            Buffer.add_subbytes out buf 0 n;
            drain ()
          end
        in
        drain ();
        Buffer.contents out)
  with
  | raw ->
    let head, body = split_head_body raw in
    let status = parse_status head in
    if status = 0 then Error (Printf.sprintf "malformed response %S" head)
    else Ok (status, body)
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception Failure msg -> Error msg
