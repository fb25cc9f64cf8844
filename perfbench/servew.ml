(* The serve-control workload: a live `qvisor-cli serve` daemon driven by
   one closed-loop control client and one open-loop scraper.

   Untraced, the daemon is its own process, spawned with the CLI's
   defaults; traced, the same configuration runs in-process on a thread so
   the benchmark can time the daemon's public entry points directly. *)

open Bcommon
module P = Daemon.Proto
module S = Daemon.Server

let policy s = get (Qvisor.Policy.parse s)

(* ------------------------------------------------------------------ *)
(* The op cycle                                                       *)
(* ------------------------------------------------------------------ *)

type expect = Status_ok | Bump | Reject

let srpt7 =
  Qvisor.Tenant.make ~algorithm:"srpt" ~rank_lo:0 ~rank_hi:100_000 ~id:7
    ~name:"srpt7" ()

(* One cycle returns the daemon to its starting population and policy, so
   a run of many cycles is stationary. *)
let cycle =
  [
    ("status", P.Status, Status_ok);
    ( "tenant_add",
      P.Tenant_add { tenant = srpt7; policy = Some (policy "edf >> pfabric + srpt7") },
      Bump );
    ("policy_update", P.Policy_update (policy "edf >> pfabric >> srpt7"), Bump);
    ("rejected_update", P.Policy_update (policy "edf >> ghost"), Reject);
    ( "tenant_remove",
      P.Tenant_remove { tenant_id = 7; policy = Some (policy "edf >> pfabric") },
      Bump );
  ]

let op_labels = List.map (fun (label, _, _) -> label) cycle

(* ------------------------------------------------------------------ *)
(* Control connection                                                 *)
(* ------------------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; mutable pending : string }

let connect path ~timeout =
  let deadline = now () +. timeout in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd; pending = "" }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.002;
      go ()
  in
  go ()

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let chunk = Bytes.create 65536

let rec read_line c =
  match String.index_opt c.pending '\n' with
  | Some i ->
    let line = String.sub c.pending 0 i in
    c.pending <- String.sub c.pending (i + 1) (String.length c.pending - i - 1);
    line
  | None ->
    let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
    if n = 0 then raise End_of_file;
    c.pending <- c.pending ^ Bytes.sub_string chunk 0 n;
    read_line c

let rpc c req =
  write_all c.fd (P.request_line req) 0;
  (* A reply that does not parse counts like a refusal. *)
  Result.join (P.parse_outcome (read_line c))

(* ------------------------------------------------------------------ *)
(* Scrape checks                                                      *)
(* ------------------------------------------------------------------ *)

let check_metrics l (status, body) =
  check l
    (status = 200
    && String.ends_with ~suffix:"# EOF\n" body
    && Result.is_ok (Engine.Exposition.parse body))
    "/metrics answers 200, parses strictly and ends in # EOF"

let check_query l (status, body) =
  let module J = Engine.Json in
  let ok =
    status = 200
    &&
    match J.of_string body with
    | Error _ -> false
    | Ok j ->
      let num k = Option.bind (J.member k j) J.to_float in
      let series = Option.bind (J.member "series" j) J.to_list in
      (match (num "memory_bytes", num "series_count", num "per_series_bytes") with
      | Some m, Some n, Some per -> m = n *. per
      | _ -> false)
      &&
      match series with
      | None -> false
      | Some series ->
        List.for_all
          (fun s ->
            match Option.bind (J.member "points" s) J.to_list with
            | Some pts -> List.length pts <= Engine.Tsdb.max_points
            | None -> false)
          series
  in
  check l ok
    "/query parses, <= max_points per series, memory = series x per-series bytes"

(* ------------------------------------------------------------------ *)
(* The client loop                                                    *)
(* ------------------------------------------------------------------ *)

type scrape = {
  latency_ms : float;  (** from the due time to the end of the reply *)
  late_ms : float;  (** from the due time to the request *)
  at : float;  (** reply time *)
}

type loop = {
  rpcs : (string * float * float) list;
      (** op label, round trip in ms, reply time *)
  cycles_s : (float * float) list;  (** wall seconds per op cycle, end time *)
  scrapes : scrape list;
  behind : int;  (** scrapes that started more than 1 ms after their due time *)
  span : float * float;  (** wall times of the first and last status *)
  span_wall : float;
  span_sim : float;  (** simulated seconds between them *)
}

let scrape_period = 0.25

(* The open loop: scrape [k] is due at [t0 + phase + k * period], whatever
   happened to scrape [k-1]; its latency counts from that due time. *)
let scraper l ~port ~phase ~t0 ~stop out =
  let rec go k acc behind =
    let due = t0 +. phase +. (float_of_int k *. scrape_period) in
    if due >= stop then (List.rev acc, behind)
    else begin
      let wait = due -. now () in
      if wait > 0. then Unix.sleepf wait;
      let start = now () in
      let target = if k mod 2 = 0 then "/metrics" else "/query?start=-60" in
      match Daemon.Http.get ~port target with
      | Error e ->
        check l false ("GET " ^ target ^ ": " ^ e);
        go (k + 1) acc behind
      | Ok reply ->
        let done_ = now () in
        (if k mod 2 = 0 then check_metrics else check_query) l reply;
        let late = start -. due in
        let s =
          { latency_ms = 1e3 *. (done_ -. due); late_ms = 1e3 *. late; at = done_ }
        in
        go (k + 1) (s :: acc) (if late > 1e-3 then behind + 1 else behind)
    end
  in
  out := Some (go 0 [] 0)

(* Closed-loop op cycles on [c] until [seconds] have passed (whole cycles
   only), with the scraper running alongside.  [timed] wraps each round
   trip (the traced run records it as a span); [epoch] is the daemon's
   epoch before the loop; [on_cycle n] runs after the [n]th cycle. *)
let client_loop ?(timed = fun f -> f ()) ?(on_cycle = ignore) l c ~port ~seed
    ~seconds ~epoch =
  let rpcs = ref [] and cycles = ref [] in
  (* The epoch counts accepted mutations plus applied remediations (the
     daemon resynthesizes on its own when a tenant violates its SLO), so
     every status must show [epoch - remediations] moved by exactly the
     mutations accepted since the loop began. *)
  let last_epoch = ref epoch and accepted = ref 0 and base = ref None in
  let first_status = ref None and last_status = ref None in
  let t0 = now () in
  let stop = t0 +. seconds in
  let phase = Random.State.float (Random.State.make [| seed |]) scrape_period in
  let sl = ledger () in
  let out = ref None in
  let th = Thread.create (fun () -> scraper sl ~port ~phase ~t0 ~stop out) () in
  let one (label, req, expect) =
    let s = now () in
    let outcome = timed (fun () -> rpc c req) in
    let e = now () in
    rpcs := (label, 1e3 *. (e -. s), e) :: !rpcs;
    match (expect, outcome) with
    | Status_ok, Ok (P.Status_reply st) ->
      let own = st.P.epoch - st.P.remediations in
      (match !base with
      | None -> base := Some own
      | Some b ->
        check l (own = b + !accepted)
          (Printf.sprintf
             "status epoch %d with %d remediations after %d accepted mutations"
             st.P.epoch st.P.remediations !accepted));
      last_epoch := st.P.epoch;
      if !first_status = None then first_status := Some (e, st.P.sim_time);
      last_status := Some (e, st.P.sim_time)
    | Bump, Ok (P.Added { epoch = n } | P.Updated { epoch = n } | P.Removed { epoch = n })
      ->
      check l (n > !last_epoch)
        (Printf.sprintf "%s moved epoch from %d to %d" label !last_epoch n);
      incr accepted;
      last_epoch := n
    | Reject, Error _ -> check l true label
    | _, Ok _ -> check l false (label ^ ": unexpected reply")
    | _, Error err ->
      check l false (label ^ ": refused: " ^ Qvisor.Error.to_string err)
  in
  let rec go () =
    let s = now () in
    List.iter one cycle;
    let e = now () in
    cycles := (e -. s, e) :: !cycles;
    on_cycle (List.length !cycles);
    if now () < stop then go ()
  in
  go ();
  (* A closing status so the simulated-rate span covers the whole loop. *)
  one (List.hd cycle);
  Thread.join th;
  let scrapes, behind = Option.value !out ~default:([], 0) in
  absorb l ~attempted:sl.attempted ~failed:sl.failed;
  check l (scrapes <> []) "the scraper completed at least one scrape";
  let span, span_sim =
    match (!first_status, !last_status) with
    | Some (w0, s0), Some (w1, s1) -> ((w0, w1), s1 -. s0)
    | _ -> ((nan, nan), nan)
  in
  let span_wall = snd span -. fst span in
  {
    rpcs = List.rev !rpcs;
    cycles_s = List.rev !cycles;
    scrapes;
    behind;
    span;
    span_wall;
    span_sim;
  }

let status_epoch l c =
  match rpc c P.Status with
  | Ok (P.Status_reply st) -> st.P.epoch
  | _ ->
    check l false "first status";
    0

(* ------------------------------------------------------------------ *)
(* The daemon as a process                                            *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; port : int }

let live = ref []

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

(* Whatever happens to the harness, no daemon outlives it. *)
let () = at_exit (fun () -> List.iter kill !live)

let port_of_output path ~deadline =
  let rec go () =
    let text = try read_file path with Sys_error _ -> "" in
    let port =
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             Scanf.sscanf_opt line "metrics: http://127.0.0.1:%d/metrics" Fun.id)
    in
    match port with
    | Some p -> p
    | None when now () < deadline ->
      Unix.sleepf 0.002;
      go ()
    | None -> failwith ("daemon never printed its port; see " ^ path)
  in
  go ()

(* Spawn [qvisor-cli serve] with its defaults, on a private socket, and
   wait for the first status reply.  Returns the daemon, the open control
   connection, the first status's epoch and the set-up seconds. *)
let spawn l ~pin ~cli ~seed ~n =
  let sock = scratch (Printf.sprintf "serve%d.sock" n) in
  let log = scratch (Printf.sprintf "serve%d.out" n) in
  let out = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
  let t0 = now () in
  let argv = pin @ [ cli; "serve"; "--socket"; sock; "--seed"; string_of_int seed ] in
  let pid = Unix.create_process (List.hd argv) (Array.of_list argv) devnull out out in
  live := pid :: !live;
  Unix.close out;
  Unix.close devnull;
  let c = connect sock ~timeout:60. in
  let epoch = status_epoch l c in
  let t1 = now () in
  let port = port_of_output log ~deadline:(now () +. 10.) in
  ({ pid; port }, c, epoch, (t1 -. t0, t1))

(* Ask the daemon to shut down over the wire and wait for it to exit. *)
let shutdown l d c =
  (match rpc c P.Shutdown with
  | Ok P.Shutting_down -> check l true "shutdown acknowledged"
  | _ -> check l false "shutdown acknowledged");
  Unix.close c.fd;
  let deadline = now () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.02;
      wait ()
    | 0, _ ->
      check l false "daemon exits within 30 s of shutdown";
      kill d.pid
    | _, status ->
      live := List.filter (( <> ) d.pid) !live;
      check l (status = Unix.WEXITED 0) "daemon exits 0"
  in
  wait ()

(* ------------------------------------------------------------------ *)
(* Untraced run: end-to-end metrics                                   *)
(* ------------------------------------------------------------------ *)

let setup_spawns = 9

(* The daemon's resident memory grows with the op cycles it has served (a
   run of 95 cycles peaked 30 MB above one of 76), so its peak is read
   after a fixed number of cycles, which a 25 s run reaches even on a slow
   host. *)
let rss_cycles = 40

(* The calibration kernel of {!Bcommon.kernel} in a process of its own,
   pinned with the daemon, timed by its own CPU clock so that sharing the
   vCPU with the daemon does not count: one sample every 100 ms. *)
let calibrate path =
  let oc = open_out path in
  while true do
    let c0 = cpu_now () in
    kernel ();
    Printf.fprintf oc "%.6f %.9f\n%!" (now ()) (cpu_now () -. c0);
    Unix.sleepf 0.1
  done

let start_calibrator ~pin =
  let path = scratch "calibration" in
  let argv = pin @ [ Sys.executable_name; "--calibrate"; path ] in
  let devnull = Unix.openfile "/dev/null" [ O_RDWR ] 0 in
  let pid =
    Unix.create_process (List.hd argv) (Array.of_list argv) devnull devnull devnull
  in
  Unix.close devnull;
  live := pid :: !live;
  (pid, path)

(* Stop the calibrator; its samples as (time, scale) in time order. *)
let calibration (pid, path) =
  kill pid;
  String.split_on_char '\n' (read_file path)
  |> List.filter_map (fun line -> Scanf.sscanf_opt line "%f %f" (fun t k -> (t, k)))
  |> List.filter_map (fun (t, k) -> if k > 0. then Some (t, scale_of k) else None)
  |> Array.of_list

(* The mean scale of the samples within half a second of [t]: one sample
   is noisy, the speed it tracks changes over seconds. *)
let scale_at samples t =
  let near =
    Array.to_list samples
    |> List.filter_map (fun (ts, sc) ->
           if Float.abs (ts -. t) <= 0.5 then Some sc else None)
  in
  if near = [] then 1. else mean near

(* [seconds] of closed loop against a daemon spawned with [daemon_seed],
   after [setup_spawns] timed start-ups (the last one is kept and
   measured); [seed] drives the scrape schedule.  The daemon and the
   calibrator run under [pin]. *)
let measure l ~pin ~cli ~daemon_seed ~seed ~seconds =
  let cal = start_calibrator ~pin in
  let rec spawns n acc =
    let d, c, epoch, setup = spawn l ~pin ~cli ~seed:daemon_seed ~n in
    if n + 1 < setup_spawns then begin
      Unix.close c.fd;
      kill d.pid;
      spawns (n + 1) (setup :: acc)
    end
    else (d, c, epoch, setup :: acc)
  in
  let d, c, epoch, setups = spawns 0 [] in
  let cpu0 = proc_cpu_s d.pid in
  let rss = ref nan in
  let lp =
    client_loop l c ~port:d.port ~seed ~seconds ~epoch ~on_cycle:(fun n ->
        if n = rss_cycles then rss := peak_rss_mb d.pid)
  in
  let cpu1 = proc_cpu_s d.pid in
  let rss = if Float.is_nan !rss then peak_rss_mb d.pid else !rss in
  shutdown l d c;
  (lp, setups, cpu1 -. cpu0, rss, calibration cal)

let latencies lp = List.map (fun (_, ms, _) -> ms) lp.rpcs

(* Every time the daemon's speed governs is reported at reference speed,
   scaled by the calibrator samples around it. *)
let untraced l ~pin ~cli ~seed ~seconds =
  let lp, setups, cpu, rss, samples =
    measure l ~pin ~cli ~daemon_seed:reference_seed ~seed ~seconds
  in
  check l (Array.length samples > 0) "the calibrator produced samples";
  let at = scale_at samples in
  let rpc = List.map (fun (_, ms, t) -> ms *. at t) lp.rpcs in
  let scr = List.map (fun s -> s.latency_ms *. at s.at) lp.scrapes in
  let w0, w1 = lp.span in
  let span_scale =
    mean
      (Array.to_list samples
      |> List.filter_map (fun (t, sc) -> if t >= w0 && t <= w1 then Some sc else None))
  in
  Printf.printf
    "serve-control: %d rpcs, %d cycles, %d scrapes (%d behind schedule, late p50 \
     %.3f ms, max %.3f ms), %.3f simulated s over %.3f wall s, %d calibration \
     samples, mean scale %.3f\n"
    (List.length rpc) (List.length lp.cycles_s) (List.length scr) lp.behind
    (median (List.map (fun s -> s.late_ms) lp.scrapes))
    (List.fold_left Float.max 0. (List.map (fun s -> s.late_ms) lp.scrapes))
    lp.span_sim lp.span_wall (Array.length samples) span_scale;
  [
    m "setup_s" "s" (median (List.map (fun (dt, t) -> dt *. at t) setups));
    m "wall_s" "s" (median (List.map (fun (dt, t) -> dt *. at t) lp.cycles_s));
    m "cpu_s" "s" (cpu *. span_scale /. lp.span_sim);
    m "rpc_p50_ms" "ms" (quantile rpc 0.5);
    m "rpc_p90_ms" "ms" (quantile rpc 0.9);
    m "scrape_p50_ms" "ms" (quantile scr 0.5);
    m "scrape_p90_ms" "ms" (quantile scr 0.9);
    m "serve_sim_rate" "s/s" (lp.span_sim /. (lp.span_wall *. span_scale));
    m "max_rss_mb" "MB" rss;
  ]

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics of the daemon                        *)
(* ------------------------------------------------------------------ *)

module L = struct
  let handle =
    List.map (fun op -> Tracer.layer ("daemon.server.handle_request." ^ op)) op_labels

  let rpc = Tracer.layer "daemon.rpc"

  let add_tenant = Tracer.layer "qvisor.runtime.add_tenant"

  let update_policy = Tracer.layer "qvisor.runtime.update_policy"

  let remove_tenant = Tracer.layer "qvisor.runtime.remove_tenant"

  let parse_request = Tracer.layer "daemon.proto.parse_request"

  let metrics_body = Tracer.layer "daemon.server.metrics_body"

  let query_body = Tracer.layer "daemon.server.query_body"

  let snapshot = Tracer.layer "daemon.server.snapshot"
end

let reps = 30

let med_ms layer f = median (Tracer.repeat_ms layer reps f)

(* Run [ops] in order, [reps] times over, each call a span of its layer:
   the median milliseconds of each op, so each op sees the state the
   previous ones leave. *)
let sequence_ms ops =
  let samples = List.map (fun _ -> ref []) ops in
  for _ = 1 to reps do
    List.iter2 (fun (layer, f) acc -> acc := Tracer.repeat_ms layer 1 f @ !acc) ops samples
  done;
  List.map (fun acc -> median !acc) samples

(* Serve the default configuration in-process for [span] simulated
   seconds while the client loop drives it over its sockets, then stop it
   and time the daemon's entry points on the exact requests of the cycle.
   The in-process server drains nothing on stop, so the state the direct
   timings see is the state at [span]. *)
let layers l ~seed ~span =
  let config =
    {
      S.default_config with
      S.socket_path = scratch "inproc.sock";
      seed;
      telemetry = Engine.Telemetry.create ();
      drain_timeout = 0.;
    }
  in
  let t = get (S.create config) in
  let server = Thread.create S.serve t in
  let c = connect (S.socket_path t) ~timeout:30. in
  (* Loops of whole cycles until the daemon has served [span]. *)
  let loop_wall = ref 0. in
  let rec drive epoch acc =
    let t0 = now () in
    let lp =
      client_loop l c ~port:(S.http_port t) ~seed ~seconds:0.5 ~epoch
        ~timed:(Tracer.phase L.rpc)
    in
    loop_wall := !loop_wall +. (now () -. t0);
    if S.sim_time t < span then drive (S.epoch t) (lp :: acc)
    else List.rev (lp :: acc)
  in
  let loops = drive (status_epoch l c) [] in
  Unix.close c.fd;
  S.stop t;
  Thread.join server;
  let rpcs = List.concat_map (fun lp -> lp.rpcs) loops in
  let scrapes = List.concat_map (fun lp -> lp.scrapes) loops in
  let span_wall = sum (List.map (fun lp -> lp.span_wall) loops) in
  let span_sim = sum (List.map (fun lp -> lp.span_sim) loops) in
  let slice_ms = 1e3 *. config.S.slice *. span_wall /. span_sim in
  (* Direct timings on the exact requests of the cycle. *)
  let handle_ms =
    sequence_ms
      (List.map2
         (fun layer (_, req, _) -> (layer, fun () -> ignore (S.handle_request t req)))
         L.handle cycle)
  in
  let handle label = List.assoc label (List.combine op_labels handle_ms) in
  let metrics_ms = med_ms L.metrics_body (fun () -> ignore (S.metrics_body t)) in
  let query_ms =
    med_ms L.query_body (fun () -> ignore (S.query_body t [ ("start", "-60") ]))
  in
  let snapshot_us = 1e3 *. med_ms L.snapshot (fun () -> S.snapshot t) in
  let rt =
    get (Qvisor.Runtime.create ~tenants:config.S.tenants ~policy:config.S.policy ())
  in
  let runtime_ms =
    sequence_ms
      [
        ( L.add_tenant,
          fun () ->
            get
              (Qvisor.Runtime.add_tenant rt srpt7
                 ~policy:(policy "edf >> pfabric + srpt7") ()) );
        ( L.update_policy,
          fun () -> get (Qvisor.Runtime.update_policy rt (policy "edf >> pfabric >> srpt7")) );
        ( L.remove_tenant,
          fun () ->
            get (Qvisor.Runtime.remove_tenant rt ~tenant_id:7 ~policy:(policy "edf >> pfabric") ())
        );
      ]
  in
  (* Proto parsing is microseconds: time batches of parses. *)
  let lines = List.map (fun (_, req, _) -> String.trim (P.request_line req)) cycle in
  let batch = 200 in
  let parse_us =
    1e3
    *. med_ms L.parse_request (fun () ->
           for _ = 1 to batch do
             List.iter (fun line -> ignore (P.parse_request line)) lines
           done)
    /. float_of_int (batch * List.length lines)
  in
  (* Client round trip minus the time the daemon spent handling it. *)
  let wait label =
    median (List.filter_map (fun (lb, ms, _) -> if lb = label then Some ms else None) rpcs)
    -. handle label
  in
  let tsdb = S.tsdb t in
  let scr = List.map (fun s -> s.latency_ms) scrapes in
  let rpc_ms = List.map (fun (_, ms, _) -> ms) rpcs in
  let traced_rpc_p50 = quantile rpc_ms 0.5 in
  (* The client's wall time outside any round trip. *)
  let uncovered = !loop_wall -. (1e-3 *. sum rpc_ms) in
  let metrics =
    [
      m "daemon.server.slice_wall_ms" "ms" slice_ms;
      m "daemon.server.handle_request.status_ms" "ms" (handle "status");
      m "daemon.server.handle_request.tenant_add_ms" "ms" (handle "tenant_add");
      m "daemon.server.handle_request.policy_update_ms" "ms" (handle "policy_update");
      m "daemon.server.handle_request.rejected_update_ms" "ms" (handle "rejected_update");
      m "daemon.server.handle_request.tenant_remove_ms" "ms" (handle "tenant_remove");
      m "daemon.rpc.wait_ms" "ms" (median (List.map wait op_labels));
      m "qvisor.runtime.add_tenant_ms" "ms" (List.nth runtime_ms 0);
      m "qvisor.runtime.update_policy_ms" "ms" (List.nth runtime_ms 1);
      m "qvisor.runtime.remove_tenant_ms" "ms" (List.nth runtime_ms 2);
      m "daemon.proto.parse_request_us" "us" parse_us;
      m "daemon.server.metrics_body_ms" "ms" metrics_ms;
      m "daemon.server.query_body_ms" "ms" query_ms;
      m "daemon.http.slices_waited" "slices" (median scr /. slice_ms);
      m "daemon.server.snapshot_us" "us" snapshot_us;
      m "daemon.tsdb.series" "count" (float_of_int (Engine.Tsdb.series_count tsdb));
      m "daemon.tsdb.memory_bytes" "bytes" (float_of_int (Engine.Tsdb.memory_bytes tsdb));
      m "bench.scrape_late_ms" "ms" (median (List.map (fun s -> s.late_ms) scrapes));
      m "bench.scrapes_behind" "count"
        (float_of_int (List.fold_left (fun a lp -> a + lp.behind) 0 loops));
    ]
  in
  (metrics, traced_rpc_p50, uncovered, !loop_wall)
