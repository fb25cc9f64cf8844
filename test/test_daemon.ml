(* Daemon tests: wire-protocol round trips, the duration converter, the
   admission pipeline (a rejected mutation must leave the old epoch
   serving), remediation hysteresis, and a socket-level integration run
   with the server in a background thread. *)

let policy s =
  match Qvisor.Policy.parse s with
  | Ok p -> p
  | Error e -> Alcotest.failf "policy %S: %s" s (Qvisor.Error.to_string e)

let tenant ?(algorithm = "srpt") ?(rank_lo = 0) ?(rank_hi = 100_000) ~id name =
  Qvisor.Tenant.make ~algorithm ~rank_lo ~rank_hi ~id ~name ()

(* ------------------------------------------------------------------ *)
(* Proto round trips                                                  *)
(* ------------------------------------------------------------------ *)

let roundtrip_request req =
  match Daemon.Proto.parse_request (String.trim (Daemon.Proto.request_line req)) with
  | Error e -> Alcotest.failf "request did not parse back: %s" (Qvisor.Error.to_string e)
  | Ok req' ->
    Alcotest.(check string) "request round-trips"
      (Engine.Json.to_string (Daemon.Proto.request_to_json req))
      (Engine.Json.to_string (Daemon.Proto.request_to_json req'))

let roundtrip_outcome outcome =
  match Daemon.Proto.parse_outcome (String.trim (Daemon.Proto.outcome_line outcome)) with
  | Error e -> Alcotest.failf "outcome did not parse back: %s" (Qvisor.Error.to_string e)
  | Ok outcome' ->
    Alcotest.(check string) "outcome round-trips"
      (Engine.Json.to_string (Daemon.Proto.outcome_to_json outcome))
      (Engine.Json.to_string (Daemon.Proto.outcome_to_json outcome'))

let test_proto_requests () =
  List.iter roundtrip_request
    [
      Daemon.Proto.Tenant_add
        { tenant = tenant ~id:7 "srpt7"; policy = Some (policy "srpt7") };
      Daemon.Proto.Tenant_add { tenant = tenant ~id:3 "noq"; policy = None };
      Daemon.Proto.Tenant_remove
        { tenant_id = 7; policy = Some (policy "edf >> pfabric") };
      Daemon.Proto.Tenant_remove { tenant_id = 0; policy = None };
      Daemon.Proto.Policy_update (policy "edf >> pfabric + srpt7");
      Daemon.Proto.Status;
      Daemon.Proto.Drain;
      Daemon.Proto.Shutdown;
    ]

let test_proto_replies () =
  let status =
    {
      Daemon.Proto.epoch = 4;
      sim_time = 1.25;
      uptime_seconds = 3.5;
      draining = true;
      policy = "edf >> pfabric";
      tenants =
        [
          {
            Daemon.Proto.ts_id = 0;
            ts_name = "pfabric";
            ts_algorithm = "pfabric";
            ts_health = Engine.Health.Healthy;
          };
          {
            Daemon.Proto.ts_id = 1;
            ts_name = "edf";
            ts_algorithm = "edf";
            ts_health = Engine.Health.Violating;
          };
        ];
      resyntheses = 3;
      remediations = 2;
      tsdb_series = 42;
      tsdb_memory_bytes = 42 * 25_920;
    }
  in
  List.iter roundtrip_outcome
    [
      Ok (Daemon.Proto.Added { epoch = 2 });
      Ok (Daemon.Proto.Removed { epoch = 3 });
      Ok (Daemon.Proto.Updated { epoch = 4 });
      Ok (Daemon.Proto.Status_reply status);
      Ok Daemon.Proto.Draining;
      Ok Daemon.Proto.Shutting_down;
    ]

let test_proto_error_replies () =
  (* Every Error variant must survive the wire, kind and message. *)
  List.iter
    (fun e ->
      roundtrip_outcome (Error e);
      match
        Daemon.Proto.parse_outcome
          (String.trim (Daemon.Proto.outcome_line (Error e)))
      with
      | Ok (Error e') ->
        Alcotest.(check bool)
          (Printf.sprintf "error equal: %s" (Qvisor.Error.to_string e))
          true
          (Qvisor.Error.equal e e')
      | _ -> Alcotest.fail "error outcome decoded as success")
    [
      Qvisor.Error.Policy_parse "unexpected character '&'";
      Qvisor.Error.Unknown_tenant "id 7";
      Qvisor.Error.Synthesis "rank-space too narrow";
      Qvisor.Error.Deploy "fewer queues than strict tiers";
      Qvisor.Error.Config "bad levels";
      Qvisor.Error.Unavailable "daemon is draining";
    ]

let test_proto_malformed () =
  List.iter
    (fun line ->
      match Daemon.Proto.parse_request line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "line %S should not parse" line)
    [
      "";
      "not json";
      "{\"no\":\"op\"}";
      "{\"op\":\"tenant-launch\"}";
      "{\"op\":\"tenant-add\"}";
      "{\"op\":\"tenant-remove\",\"id\":\"seven\"}";
      "{\"op\":\"policy-update\",\"policy\":\"t1 >>\"}";
    ]

(* ------------------------------------------------------------------ *)
(* Cliopts duration converter                                         *)
(* ------------------------------------------------------------------ *)

let test_duration_parse () =
  let ok s expected =
    match Cliopts.duration_of_string s with
    | Ok v -> Alcotest.(check (float 1e-9)) (Printf.sprintf "%S" s) expected v
    | Error e -> Alcotest.failf "%S should parse: %s" s e
  in
  ok "500ms" 0.5;
  ok "2s" 2.0;
  ok "1m" 60.0;
  ok "1.5m" 90.0;
  ok "0.25s" 0.25;
  ok "3" 3.0;
  ok "10ms" 0.01

let test_duration_reject () =
  List.iter
    (fun s ->
      match Cliopts.duration_of_string s with
      | Error _ -> ()
      | Ok v -> Alcotest.failf "%S should be rejected (got %g)" s v)
    [ ""; "0"; "0s"; "-1s"; "abc"; "1h"; "ms"; "nan"; "inf" ]

(* ------------------------------------------------------------------ *)
(* Remediation hysteresis                                             *)
(* ------------------------------------------------------------------ *)

let remediation_config =
  {
    Daemon.Remediation.cooldown = 10.;
    backoff_factor = 2.;
    backoff_max = 80.;
    recovery = 30.;
  }

let test_remediation_ladder () =
  let r = Daemon.Remediation.create ~config:remediation_config () in
  (* First violation fires immediately, with the gentle action. *)
  (match Daemon.Remediation.observe r ~id:0 ~now:0. ~levels:None Engine.Health.Violating with
  | Daemon.Remediation.Fire { attempt = 1; action = Daemon.Remediation.Refresh } -> ()
  | _ -> Alcotest.fail "first violation should fire refresh");
  (* Still violating inside the cooldown: held. *)
  (match Daemon.Remediation.observe r ~id:0 ~now:5. ~levels:None Engine.Health.Violating with
  | Daemon.Remediation.Hold -> ()
  | _ -> Alcotest.fail "violation inside the cooldown should hold");
  (* Past the cooldown the ladder escalates to coarsening. *)
  (match Daemon.Remediation.observe r ~id:0 ~now:10. ~levels:None Engine.Health.Violating with
  | Daemon.Remediation.Fire
      { attempt = 2; action = Daemon.Remediation.Coarsen { levels = 128 } } ->
    ()
  | _ -> Alcotest.fail "second attempt should coarsen 256 -> 128");
  (* Coarsening halves the current resolution, floored at 4. *)
  (match
     Daemon.Remediation.observe r ~id:0 ~now:30. ~levels:(Some 6)
       Engine.Health.Violating
   with
  | Daemon.Remediation.Fire
      { attempt = 3; action = Daemon.Remediation.Coarsen { levels = 4 } } ->
    ()
  | _ -> Alcotest.fail "coarsening floors at 4 levels")

let test_remediation_no_flap () =
  (* A tenant alternating healthy/violating every 5 s (faster than the
     30 s recovery) must climb the backoff ladder, not re-trigger
     eagerly: over 200 s that is exactly 5 fires (t = 0, 10, 30, 70,
     150), not the 21 a naive per-window reset would produce. *)
  let r = Daemon.Remediation.create ~config:remediation_config () in
  let fires = ref [] in
  for step = 0 to 40 do
    let now = 5. *. float_of_int step in
    let state =
      if step mod 2 = 0 then Engine.Health.Violating else Engine.Health.Healthy
    in
    match Daemon.Remediation.observe r ~id:0 ~now ~levels:None state with
    | Daemon.Remediation.Fire { attempt; _ } -> fires := (now, attempt) :: !fires
    | Daemon.Remediation.Hold -> ()
  done;
  let fires = List.rev !fires in
  Alcotest.(check (list (pair (float 1e-9) int)))
    "exponentially backed-off fire times"
    [ (0., 1); (10., 2); (30., 3); (70., 4); (150., 5) ]
    fires;
  Alcotest.(check int) "attempts kept climbing" 5
    (Daemon.Remediation.attempts r ~id:0)

let test_remediation_recovery_reset () =
  let r = Daemon.Remediation.create ~config:remediation_config () in
  (match Daemon.Remediation.observe r ~id:0 ~now:0. ~levels:None Engine.Health.Violating with
  | Daemon.Remediation.Fire { attempt = 1; _ } -> ()
  | _ -> Alcotest.fail "fire 1");
  (* 40 continuous healthy seconds (> recovery = 30) reset the ladder... *)
  ignore (Daemon.Remediation.observe r ~id:0 ~now:5. ~levels:None Engine.Health.Healthy);
  ignore (Daemon.Remediation.observe r ~id:0 ~now:45. ~levels:None Engine.Health.Healthy);
  Alcotest.(check int) "attempts reset" 0 (Daemon.Remediation.attempts r ~id:0);
  (match Daemon.Remediation.observe r ~id:0 ~now:50. ~levels:None Engine.Health.Violating with
  | Daemon.Remediation.Fire { attempt = 1; action = Daemon.Remediation.Refresh } -> ()
  | _ -> Alcotest.fail "post-recovery violation starts the ladder over")

let test_remediation_degraded_breaks_streak () =
  let r = Daemon.Remediation.create ~config:remediation_config () in
  (match Daemon.Remediation.observe r ~id:0 ~now:0. ~levels:None Engine.Health.Violating with
  | Daemon.Remediation.Fire { attempt = 1; _ } -> ()
  | _ -> Alcotest.fail "fire 1");
  (* 5..44 looks like 39 healthy seconds, but the degraded blip at t=10
     restarts the streak: no reset, and the next violation is attempt 2. *)
  ignore (Daemon.Remediation.observe r ~id:0 ~now:5. ~levels:None Engine.Health.Healthy);
  ignore (Daemon.Remediation.observe r ~id:0 ~now:10. ~levels:None Engine.Health.Degraded);
  ignore (Daemon.Remediation.observe r ~id:0 ~now:15. ~levels:None Engine.Health.Healthy);
  ignore (Daemon.Remediation.observe r ~id:0 ~now:44. ~levels:None Engine.Health.Healthy);
  Alcotest.(check int) "no reset across the degraded blip" 1
    (Daemon.Remediation.attempts r ~id:0);
  match Daemon.Remediation.observe r ~id:0 ~now:45. ~levels:None Engine.Health.Violating with
  | Daemon.Remediation.Fire { attempt = 2; _ } -> ()
  | _ -> Alcotest.fail "ladder continues at attempt 2"

(* ------------------------------------------------------------------ *)
(* Admission pipeline (handle_request, no sockets involved)           *)
(* ------------------------------------------------------------------ *)

let temp_server ?(slice = 0.005) () =
  let dir = Filename.temp_dir "qvisor-daemon-test" "" in
  let config =
    {
      Daemon.Server.default_config with
      Daemon.Server.socket_path = Filename.concat dir "ctl.sock";
      http_port = 0;
      slice;
      drain_timeout = 0.02;
      telemetry = Engine.Telemetry.create ();
    }
  in
  match Daemon.Server.create config with
  | Ok t -> t
  | Error e -> Alcotest.failf "create: %s" (Qvisor.Error.to_string e)

let get_status t =
  match Daemon.Server.handle_request t Daemon.Proto.Status with
  | Ok (Daemon.Proto.Status_reply st) -> st
  | _ -> Alcotest.fail "status request failed"

let test_admission_rejection_keeps_epoch () =
  let t = temp_server () in
  Alcotest.(check int) "initial epoch" 1 (Daemon.Server.epoch t);
  (* Duplicate name: refused before anything is synthesized. *)
  (match
     Daemon.Server.handle_request t
       (Daemon.Proto.Tenant_add
          { tenant = tenant ~id:9 "pfabric"; policy = None })
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate tenant name must be refused");
  (* Policy naming a tenant that does not exist: refused by validation. *)
  (match
     Daemon.Server.handle_request t
       (Daemon.Proto.Policy_update (policy "edf >> pfabric + ghost"))
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "policy naming a ghost tenant must be refused");
  (* Removing an unknown tenant: refused. *)
  (match
     Daemon.Server.handle_request t
       (Daemon.Proto.Tenant_remove { tenant_id = 42; policy = None })
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tenant removal must be refused");
  let st = get_status t in
  Alcotest.(check int) "old epoch still serving" 1 st.Daemon.Proto.epoch;
  Alcotest.(check int) "both original tenants still serving" 2
    (List.length st.Daemon.Proto.tenants);
  (* And a good mutation still goes through afterwards. *)
  match
    Daemon.Server.handle_request t
      (Daemon.Proto.Tenant_add
         {
           tenant = tenant ~id:9 "srpt9";
           policy = Some (policy "edf >> pfabric + srpt9");
         })
  with
  | Ok (Daemon.Proto.Added { epoch = 2 }) -> ()
  | Ok _ -> Alcotest.fail "unexpected reply to a valid add"
  | Error e -> Alcotest.failf "valid add refused: %s" (Qvisor.Error.to_string e)

let test_draining_refuses_mutations () =
  let t = temp_server () in
  (match Daemon.Server.handle_request t Daemon.Proto.Drain with
  | Ok Daemon.Proto.Draining -> ()
  | _ -> Alcotest.fail "drain must be acknowledged");
  (match
     Daemon.Server.handle_request t
       (Daemon.Proto.Tenant_add { tenant = tenant ~id:9 "late"; policy = None })
   with
  | Error (Qvisor.Error.Unavailable _) -> ()
  | _ -> Alcotest.fail "mutation while draining must be Unavailable");
  (* Observability stays up. *)
  let st = get_status t in
  Alcotest.(check bool) "status reports draining" true st.Daemon.Proto.draining

(* ------------------------------------------------------------------ *)
(* Socket-level integration                                           *)
(* ------------------------------------------------------------------ *)

let rec write_all fd bytes off len =
  if len > 0 then begin
    let n = Unix.write fd bytes off len in
    write_all fd bytes (off + n) (len - n)
  end

let send_line fd line =
  let bytes = Bytes.of_string line in
  write_all fd bytes 0 (Bytes.length bytes)

(* Read one newline-terminated line (the reply) off a stream socket,
   consuming nothing past the newline: peek at what has arrived, then take
   up to the newline.  Two reads per line rather than one per byte matter
   here, because the server thread shares the runtime lock and every read
   has to win it back. *)
let read_line fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.recv fd chunk 0 4096 [ Unix.MSG_PEEK ] with
    | 0 -> Buffer.contents buf
    | n -> (
      match Bytes.index_from_opt chunk 0 '\n' with
      | Some i when i < n ->
        let taken = Unix.read fd chunk 0 (i + 1) in
        Buffer.add_subbytes buf chunk 0 (taken - 1);
        Buffer.contents buf
      | _ ->
        let taken = Unix.read fd chunk 0 n in
        Buffer.add_subbytes buf chunk 0 taken;
        go ())
  in
  go ()

let rpc fd req =
  send_line fd (Daemon.Proto.request_line req);
  match Daemon.Proto.parse_outcome (read_line fd) with
  | Ok outcome -> outcome
  | Error e -> Alcotest.failf "unparseable reply: %s" (Qvisor.Error.to_string e)

(* Everything the peer sends until it closes. *)
let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      drain ()
  in
  drain ()

(* One full HTTP exchange against the scrape port; returns the body. *)
let http_get port target =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  send_line fd (Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" target);
  let doc = read_all fd in
  Unix.close fd;
  match String.index_opt doc '\r' with
  | None -> Alcotest.failf "no status line in %S" doc
  | Some _ -> (
    let marker = "\r\n\r\n" in
    let rec find i =
      if i + 4 > String.length doc then None
      else if String.sub doc i 4 = marker then Some (i + 4)
      else find (i + 1)
    in
    match find 0 with
    | None -> Alcotest.failf "no header/body split in %S" doc
    | Some body_at -> String.sub doc body_at (String.length doc - body_at))

let test_socket_integration () =
  let t = temp_server () in
  let server_thread = Thread.create Daemon.Server.serve t in
  let port = Daemon.Server.http_port t in
  (* Give the loop a moment to start serving before connecting. *)
  Unix.sleepf 0.05;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec connect tries =
    try Unix.connect fd (Unix.ADDR_UNIX (Daemon.Server.socket_path t))
    with Unix.Unix_error _ when tries > 0 ->
      Unix.sleepf 0.05;
      connect (tries - 1)
  in
  connect 40;
  (* Baseline: two tenants at epoch 1. *)
  (match rpc fd Daemon.Proto.Status with
  | Ok (Daemon.Proto.Status_reply st) ->
    Alcotest.(check int) "epoch 1" 1 st.Daemon.Proto.epoch;
    Alcotest.(check int) "two tenants" 2 (List.length st.Daemon.Proto.tenants)
  | _ -> Alcotest.fail "status over the socket");
  (* Admit a tenant; its families must appear in the live scrape. *)
  (match
     rpc fd
       (Daemon.Proto.Tenant_add
          {
            tenant = tenant ~id:7 "srpt7";
            policy = Some (policy "edf >> pfabric + srpt7");
          })
   with
  | Ok (Daemon.Proto.Added { epoch = 2 }) -> ()
  | Ok _ -> Alcotest.fail "unexpected add reply"
  | Error e -> Alcotest.failf "add refused: %s" (Qvisor.Error.to_string e));
  Unix.sleepf 0.1;
  let body = http_get port "/metrics" in
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
    n > 0 && at 0
  in
  Alcotest.(check bool) "srpt7 visible in /metrics" true
    (contains "srpt7" body);
  Alcotest.(check bool) "exposition is EOF-terminated" true
    (contains "# EOF" body);
  (match Engine.Exposition.parse body with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "live scrape does not parse strictly: %s" e);
  (* Evict the tenant; its families must disappear. *)
  (match
     rpc fd
       (Daemon.Proto.Tenant_remove
          { tenant_id = 7; policy = Some (policy "edf >> pfabric") })
   with
  | Ok (Daemon.Proto.Removed { epoch = 3 }) -> ()
  | Ok _ -> Alcotest.fail "unexpected remove reply"
  | Error e -> Alcotest.failf "remove refused: %s" (Qvisor.Error.to_string e));
  Unix.sleepf 0.05;
  let body = http_get port "/metrics" in
  Alcotest.(check bool) "srpt7 gone from /metrics" false
    (contains "srpt7" body);
  let health = http_get port "/healthz" in
  Alcotest.(check bool) "healthz answers" true (String.length health > 0);
  (* Clean shutdown over the wire. *)
  (match rpc fd Daemon.Proto.Shutdown with
  | Ok Daemon.Proto.Shutting_down -> ()
  | _ -> Alcotest.fail "shutdown must be acknowledged");
  Unix.close fd;
  Thread.join server_thread;
  Alcotest.(check bool) "control socket unlinked" false
    (Sys.file_exists (Daemon.Server.socket_path t))

(* A client that never ends its line (control) or its head (HTTP) is
   refused with a typed answer and closed once its input outgrows the
   cap, and the loop keeps serving everyone else.  Exactly one byte over
   the cap is sent, so the daemon has read all of it when it closes. *)
let test_input_cap () =
  let t = temp_server () in
  let server_thread = Thread.create Daemon.Server.serve t in
  let over = Daemon.Server.max_pending_bytes + 1 in
  (* A daemon that never answers fails the test instead of hanging it. *)
  let timeout fd = Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10. in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX (Daemon.Server.socket_path t));
    timeout fd;
    fd
  in
  let hostile = connect () in
  send_line hostile (String.make over 'x');
  (match Daemon.Proto.parse_outcome (read_line hostile) with
  | Ok (Error (Qvisor.Error.Config _)) -> ()
  | _ -> Alcotest.fail "an over-cap control line must get a typed error");
  Alcotest.(check int) "over-cap control client is closed" 0
    (Unix.read hostile (Bytes.create 1) 0 1);
  Unix.close hostile;
  let http = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect http
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Daemon.Server.http_port t));
  timeout http;
  send_line http ("GET /" ^ String.make (over - 5) 'x');
  let answer = read_all http in
  Unix.close http;
  Alcotest.(check bool) "over-cap HTTP head is a 400" true
    (String.starts_with ~prefix:"HTTP/1.1 400" answer);
  let fd = connect () in
  (match rpc fd Daemon.Proto.Status with
  | Ok (Daemon.Proto.Status_reply _) -> ()
  | _ -> Alcotest.fail "a second client's status must still answer");
  (match rpc fd Daemon.Proto.Shutdown with
  | Ok Daemon.Proto.Shutting_down -> ()
  | _ -> Alcotest.fail "shutdown must be acknowledged");
  Unix.close fd;
  Thread.join server_thread

(* A control connection whose reads give up after 10 s, so a daemon that
   never answers fails the test instead of hanging it. *)
let connect_ctl t =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX (Daemon.Server.socket_path t));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  fd

let status_sim_time fd =
  match rpc fd Daemon.Proto.Status with
  | Ok (Daemon.Proto.Status_reply st) -> st.Daemon.Proto.sim_time
  | _ -> Alcotest.fail "status must answer"
  | exception Unix.Unix_error (Unix.EAGAIN, _, _) ->
    Alcotest.fail "no status reply within the receive timeout"

let shutdown_over fd server_thread =
  (match rpc fd Daemon.Proto.Shutdown with
  | Ok Daemon.Proto.Shutting_down -> ()
  | _ -> Alcotest.fail "shutdown must be acknowledged");
  Unix.close fd;
  Thread.join server_thread

(* The loop polls between bounded chunks of events, not only at slice
   ends: with one-second slices, every one of ten status round trips is
   answered inside the first simulated second. *)
let test_answered_inside_slice () =
  let t = temp_server ~slice:1.0 () in
  let server_thread = Thread.create Daemon.Server.serve t in
  let fd = connect_ctl t in
  for i = 1 to 10 do
    let sim_time = status_sim_time fd in
    if sim_time >= 1.0 then
      Alcotest.failf "status %d answered at simulated %g s, not inside the \
                      first 1 s slice" i sim_time
  done;
  shutdown_over fd server_thread

(* A control client that floods requests and never reads the replies
   holds back only itself: the daemon queues its replies and stops
   reading it, while a second client is still answered and simulated time
   still moves. *)
let test_slow_reader_holds_back_only_itself () =
  let t = temp_server () in
  let server_thread = Thread.create Daemon.Server.serve t in
  let other = connect_ctl t in
  let before = status_sim_time other in
  let hog = connect_ctl t in
  (* Room in the hog's own socket buffer for the whole flood, so the
     flood completes whether or not the daemon keeps reading. *)
  Unix.setsockopt_int hog Unix.SO_SNDBUF (1 lsl 20);
  Unix.set_nonblock hog;
  let line = Daemon.Proto.request_line Daemon.Proto.Status in
  let copies = (256 * 1024 / String.length line) + 1 in
  let flood = String.concat "" (List.init copies (fun _ -> line)) in
  let deadline = Unix.gettimeofday () +. 10. in
  let rec write off =
    if off < String.length flood then
      let len = String.length flood - off in
      match Unix.single_write_substring hog flood off len with
      | n -> write (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "flood stalled after %d of %d bytes" off
            (String.length flood);
        ignore (Unix.select [] [ hog ] [] 0.1);
        write off
  in
  write 0;
  (* A tenth of a simulated second is twenty slices: far more than the
     daemon needs to read the hog until its replies back up. *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec later () =
    let now = status_sim_time other in
    if now < before +. 0.1 then begin
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "simulated time only reached %g s behind the slow reader"
          now;
      Unix.sleepf 0.01;
      later ()
    end
  in
  later ();
  Unix.close hog;
  shutdown_over other server_thread

(* A tenant-add whose tenant carries an id outside [0, 65535] is refused
   with a typed error, leaves the deployment as it was, and the daemon
   goes on answering.  Such an id would index, or size, the dense
   per-tenant tables. *)
let refuse_tenant_id id =
  let t = temp_server () in
  let server_thread = Thread.create Daemon.Server.serve t in
  let fd = connect_ctl t in
  let hostile = { (tenant ~id:9 "bad") with Qvisor.Tenant.id } in
  (match
     rpc fd
       (Daemon.Proto.Tenant_add
          { tenant = hostile; policy = Some (policy "edf >> pfabric + bad") })
   with
  | Error (Qvisor.Error.Config _) -> ()
  | Error e -> Alcotest.failf "not a config error: %s" (Qvisor.Error.to_string e)
  | Ok _ -> Alcotest.failf "tenant id %d must be refused" id
  | exception Unix.Unix_error (Unix.EAGAIN, _, _) ->
    Alcotest.fail "no reply to the hostile tenant-add");
  (match rpc fd Daemon.Proto.Status with
  | Ok (Daemon.Proto.Status_reply st) ->
    Alcotest.(check int) "epoch unchanged" 1 st.Daemon.Proto.epoch;
    Alcotest.(check (list string)) "tenants unchanged" [ "pfabric"; "edf" ]
      (List.map (fun ts -> ts.Daemon.Proto.ts_name) st.Daemon.Proto.tenants)
  | _ -> Alcotest.fail "status after the refusal"
  | exception Unix.Unix_error (Unix.EAGAIN, _, _) ->
    Alcotest.fail "no status reply after the hostile tenant-add");
  shutdown_over fd server_thread

let test_negative_tenant_id_refused () = refuse_tenant_id (-1)

(* 10^18 would size those tables past any memory. *)
let test_huge_tenant_id_refused () = refuse_tenant_id 1_000_000_000_000_000_000

(* ------------------------------------------------------------------ *)
(* HTTP target parsing                                                *)
(* ------------------------------------------------------------------ *)

let test_percent_decode () =
  let check input expected =
    Alcotest.(check string) (Printf.sprintf "%S" input) expected
      (Daemon.Http.percent_decode input)
  in
  check "" "";
  check "plain" "plain";
  check "%41%42c" "ABc";
  check "a+b" "a b";
  check "net.%2A" "net.*";
  check "100%25" "100%";
  (* Malformed escapes pass through literally. *)
  check "%" "%";
  check "%4" "%4";
  check "%zz" "%zz"

let test_split_target () =
  let kv = Alcotest.(pair string string) in
  let check target (path, params) =
    let path', params' = Daemon.Http.split_target target in
    Alcotest.(check string) (target ^ " path") path path';
    Alcotest.check (Alcotest.list kv) (target ^ " params") params params'
  in
  check "/metrics" ("/metrics", []);
  check "/query?" ("/query", []);
  check "/query?start=-60" ("/query", [ ("start", "-60") ]);
  check "/query?series=net.%2A&step=5"
    ("/query", [ ("series", "net.*"); ("step", "5") ]);
  check "/query?tenant=a+b&flag" ("/query", [ ("tenant", "a b"); ("flag", "") ])

(* ------------------------------------------------------------------ *)
(* /query + dashboard integration                                     *)
(* ------------------------------------------------------------------ *)

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n > 0 && at 0

(* Serve with the lifo-ties fault injected: the conformance oracle
   drives a health transition, which must surface as a /query annotation
   the dashboard and post-mortem can render. *)
let test_query_dashboard_integration () =
  let dir = Filename.temp_dir "qvisor-daemon-test" "" in
  let config =
    {
      Daemon.Server.default_config with
      Daemon.Server.socket_path = Filename.concat dir "ctl.sock";
      http_port = 0;
      slice = 0.01;
      drain_timeout = 0.02;
      snapshot_interval = 0.05;
      telemetry = Engine.Telemetry.create ();
      inject_qdisc = Some (Conformance.Fault.qdisc Conformance.Fault.Lifo_ties);
    }
  in
  let t =
    match Daemon.Server.create config with
    | Ok t -> t
    | Error e -> Alcotest.failf "create: %s" (Qvisor.Error.to_string e)
  in
  let server_thread = Thread.create Daemon.Server.serve t in
  let port = Daemon.Server.http_port t in
  Unix.sleepf 0.05;
  (* Poll until the snapshotter has populated the store and the injected
     fault has produced a health annotation. *)
  let deadline = Unix.gettimeofday () +. 30. in
  let has_health (d : Daemon.Dash.data) =
    List.exists
      (fun (a : Daemon.Dash.annotation) -> a.Daemon.Dash.a_kind = "health")
      d.Daemon.Dash.annotations
  in
  let rec settle () =
    let body = http_get port "/query?start=-120" in
    match Daemon.Dash.data_of_body body with
    | Error e -> Alcotest.failf "/query body did not decode: %s" e
    | Ok d ->
      (* The injected fault flips health on the very first tick, so also
         wait for a later snapshot that carries the per-tenant counters. *)
      if
        has_health d
        && Daemon.Dash.find_series d "net.tenant.0.enqueue" <> None
      then d
      else if Unix.gettimeofday () > deadline then
        Alcotest.fail "no health annotation within the deadline"
      else begin
        Unix.sleepf 0.1;
        settle ()
      end
  in
  let d = settle () in
  (* Shape: the documented fixed memory bound holds. *)
  Alcotest.(check int) "per-series bound is the documented 25920 B" 25_920
    d.Daemon.Dash.per_series_bytes;
  Alcotest.(check int) "memory = series * per-series"
    (d.Daemon.Dash.series_count * d.Daemon.Dash.per_series_bytes)
    d.Daemon.Dash.memory_bytes;
  Alcotest.(check bool) "store has interned series" true
    (d.Daemon.Dash.series_count > 0);
  (* Every range answer respects the hard point cap. *)
  List.iter
    (fun (s : Daemon.Dash.series) ->
      if Array.length s.Daemon.Dash.points > Engine.Tsdb.max_points then
        Alcotest.failf "series %s has %d points (cap %d)" s.Daemon.Dash.name
          (Array.length s.Daemon.Dash.points)
          Engine.Tsdb.max_points)
    d.Daemon.Dash.series;
  (* The paper's two tenants, each with a legal health state. *)
  let tenant_names =
    List.map (fun (tn : Daemon.Dash.tenant) -> tn.Daemon.Dash.name)
      d.Daemon.Dash.tenants
  in
  Alcotest.(check (list string)) "tenants" [ "edf"; "pfabric" ]
    (List.sort compare tenant_names);
  List.iter
    (fun (tn : Daemon.Dash.tenant) ->
      if not (List.mem tn.Daemon.Dash.health [ "healthy"; "degraded"; "violating" ])
      then Alcotest.failf "tenant %s: bad health %S" tn.Daemon.Dash.name
          tn.Daemon.Dash.health)
    d.Daemon.Dash.tenants;
  (* Per-tenant network counters are present and typed. *)
  (match Daemon.Dash.find_series d "net.tenant.0.enqueue" with
  | Some s ->
    Alcotest.(check string) "enqueue is a counter" "counter" s.Daemon.Dash.kind;
    Alcotest.(check bool) "enqueue carries a tenant tag" true
      (s.Daemon.Dash.tenant <> None);
    Alcotest.(check bool) "enqueue has live buckets" true
      (Array.exists Option.is_some s.Daemon.Dash.points)
  | None -> Alcotest.fail "net.tenant.0.enqueue missing from /query");
  (* Tenant filtering narrows the series list. *)
  (match Daemon.Dash.data_of_body (http_get port "/query?start=-120&tenant=pfabric") with
  | Error e -> Alcotest.failf "tenant-filtered /query: %s" e
  | Ok df ->
    Alcotest.(check bool) "filtered answer is non-empty" true
      (df.Daemon.Dash.series <> []);
    List.iter
      (fun (s : Daemon.Dash.series) ->
        Alcotest.(check (option string))
          (s.Daemon.Dash.name ^ " belongs to pfabric")
          (Some "pfabric") s.Daemon.Dash.tenant)
      df.Daemon.Dash.series);
  (* Glob filtering keeps only matching names. *)
  (match Daemon.Dash.data_of_body (http_get port "/query?start=-120&series=net.%2A") with
  | Error e -> Alcotest.failf "glob-filtered /query: %s" e
  | Ok dg ->
    Alcotest.(check bool) "glob answer is non-empty" true
      (dg.Daemon.Dash.series <> []);
    List.iter
      (fun (s : Daemon.Dash.series) ->
        if not (String.length s.Daemon.Dash.name >= 4
                && String.sub s.Daemon.Dash.name 0 4 = "net.")
        then Alcotest.failf "series %s escaped the net.* glob" s.Daemon.Dash.name)
      dg.Daemon.Dash.series);
  (* Bad parameters answer 400, not a crash. *)
  (match Daemon.Http.get ~port "/query?start=abc" with
  | Ok (status, _) -> Alcotest.(check int) "bad start is a 400" 400 status
  | Error e -> Alcotest.failf "bad-parameter GET failed at the socket: %s" e);
  (match Daemon.Http.get ~port "/query?tenant=ghost" with
  | Ok (status, _) -> Alcotest.(check int) "unknown tenant is a 400" 400 status
  | Error e -> Alcotest.failf "unknown-tenant GET failed at the socket: %s" e);
  (* The dashboard frame renders every tenant with a badge and the
     incident feed; color mode carries ANSI escapes, plain mode none. *)
  let frame = Daemon.Dash.render_top ~color:false d in
  Alcotest.(check bool) "top shows pfabric" true (contains "pfabric" frame);
  Alcotest.(check bool) "top shows edf" true (contains "edf" frame);
  Alcotest.(check bool) "top shows the incident feed" true
    (contains "recent incidents:" frame);
  Alcotest.(check bool) "top states the fixed memory bound" true
    (contains "(fixed)" frame);
  Alcotest.(check bool) "plain frame has no ANSI escapes" false
    (contains "\027[" frame);
  Alcotest.(check bool) "colored frame has ANSI escapes" true
    (contains "\027[" (Daemon.Dash.render_top ~color:true d));
  (* The post-mortem lists the injected-fault incident. *)
  let report = Daemon.Dash.render_report d in
  Alcotest.(check bool) "report has a header" true
    (contains "qvisor report" report);
  Alcotest.(check bool) "report lists the incident" true
    (contains "incident:" report);
  Alcotest.(check bool) "report names the health transition" true
    (contains "[health]" report);
  (* Status over the control socket reports the store's footprint. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX (Daemon.Server.socket_path t));
  (match rpc fd Daemon.Proto.Status with
  | Ok (Daemon.Proto.Status_reply st) ->
    Alcotest.(check int) "status mirrors /query series count"
      d.Daemon.Dash.series_count st.Daemon.Proto.tsdb_series;
    Alcotest.(check bool) "status reports uptime" true
      (st.Daemon.Proto.uptime_seconds > 0.)
  | _ -> Alcotest.fail "status over the socket");
  (* Golden behaviour pin, recorded from the reference implementation:
     serve past simulated second 1.05, stop, and digest the store's first
     second with the wall-clock and stop-latency-dependent fields
     removed. *)
  let deadline = Unix.gettimeofday () +. 60. in
  while Daemon.Server.sim_time t < 1.05 do
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "serving stalled before simulated second 1.05";
    Unix.sleepf 0.01
  done;
  (match rpc fd Daemon.Proto.Shutdown with
  | Ok Daemon.Proto.Shutting_down -> ()
  | _ -> Alcotest.fail "shutdown must be acknowledged");
  Unix.close fd;
  Thread.join server_thread;
  let volatile =
    [ "now"; "sim_time"; "uptime_seconds"; "series_count"; "memory_bytes" ]
  in
  let pinned =
    match
      Daemon.Server.query_body t
        [ ("start", "0.000001"); ("end", "1"); ("step", "1") ]
    with
    | Error e -> Alcotest.failf "golden /query: %s" e
    | Ok body -> (
      match Engine.Json.of_string body with
      | Ok (Engine.Json.Obj fields) ->
        Engine.Json.to_string
          (Engine.Json.Obj
             (List.filter (fun (k, _) -> not (List.mem k volatile)) fields))
      | _ -> Alcotest.failf "golden /query is not a JSON object: %s" body)
  in
  Alcotest.(check string) "golden /query digest"
    "3023e62a08c0eb5960d05b670d4094b6"
    (Digest.to_hex (Digest.string pinned))

let () =
  Alcotest.run "daemon"
    [
      ( "proto",
        [
          Alcotest.test_case "request round trips" `Quick test_proto_requests;
          Alcotest.test_case "reply round trips" `Quick test_proto_replies;
          Alcotest.test_case "error replies" `Quick test_proto_error_replies;
          Alcotest.test_case "malformed lines" `Quick test_proto_malformed;
        ] );
      ( "duration",
        [
          Alcotest.test_case "accepted forms" `Quick test_duration_parse;
          Alcotest.test_case "rejected forms" `Quick test_duration_reject;
        ] );
      ( "remediation",
        [
          Alcotest.test_case "action ladder" `Quick test_remediation_ladder;
          Alcotest.test_case "no flap on alternating windows" `Quick
            test_remediation_no_flap;
          Alcotest.test_case "recovery resets attempts" `Quick
            test_remediation_recovery_reset;
          Alcotest.test_case "degraded breaks the healthy streak" `Quick
            test_remediation_degraded_breaks_streak;
        ] );
      ( "admission",
        [
          Alcotest.test_case "rejection keeps the old epoch" `Quick
            test_admission_rejection_keeps_epoch;
          Alcotest.test_case "draining refuses mutations" `Quick
            test_draining_refuses_mutations;
        ] );
      ( "http",
        [
          Alcotest.test_case "percent decoding" `Quick test_percent_decode;
          Alcotest.test_case "target splitting" `Quick test_split_target;
        ] );
      ( "socket",
        [
          Alcotest.test_case "end-to-end over the wire" `Slow
            test_socket_integration;
          Alcotest.test_case "query, top and report end to end" `Slow
            test_query_dashboard_integration;
          Alcotest.test_case "over-cap input is refused" `Slow
            test_input_cap;
          Alcotest.test_case "answered inside a slice" `Slow
            test_answered_inside_slice;
          Alcotest.test_case "slow reader holds back only itself" `Slow
            test_slow_reader_holds_back_only_itself;
          Alcotest.test_case "negative tenant id is refused" `Slow
            test_negative_tenant_id_refused;
          Alcotest.test_case "huge tenant id is refused" `Slow
            test_huge_tenant_id_refused;
        ] );
    ]
