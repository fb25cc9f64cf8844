module T = Qvisor.Tenant
module Fig4 = Experiments.Fig4

type config = {
  socket_path : string;
  http_port : int;
  tenants : T.t list;
  policy : Qvisor.Policy.t;
  levels : int option;
  seed : int;
  load : float;
  slice : float;
  drain_timeout : float;
  remediation : Remediation.config;
  telemetry : Engine.Telemetry.t;
  alerts : out_channel option;
  audit : out_channel option;
  inject_qdisc : (capacity_pkts:int -> Sched.Qdisc.t) option;
  pace : bool;  (* sleep the slice loop to wall-clock instead of free-running *)
  snapshot_interval : float;  (* simulated seconds between tsdb snapshots *)
}

(* The served scenario is the paper's quick-scale Fig. 4 evaluation: its
   leaf-spine fabric, port queues, tenants and rank units.  Serving
   capacity scales with later roadmap items (intra-sim parallelism), not
   with daemon knobs. *)
let scenario = Fig4.quick

let deadline_flow_bytes = 14_600 (* ten full payloads per deadline flow *)

(* Unanswered input one connection may buffer: a control line or an HTTP
   head longer than this is refused, which bounds both the memory a
   client can pin and the cost of rescanning for the line or head end. *)
let max_pending_bytes = 65_536

let default_config =
  {
    socket_path = "qvisor.sock";
    http_port = 0;
    tenants = Fig4.qvisor_tenants scenario;
    policy = Qvisor.Policy.parse_exn "edf >> pfabric";
    levels = None;
    seed = 1;
    load = 0.3;
    slice = 0.01;
    drain_timeout = 0.5;
    remediation = Remediation.default_config;
    telemetry = Engine.Telemetry.create ();
    alerts = None;
    audit = None;
    inject_qdisc = None;
    pace = false;
    snapshot_interval = 1.0;
  }

type conn = {
  fd : Unix.file_descr;
  kind : [ `Ctl | `Http ];
  pending : Buffer.t;
  mutable closed : bool;
}

type t = {
  config : config;
  sim : Engine.Sim.t;
  transport : Netsim.Transport.t;
  net : Netsim.Net.t;
  runtime : Qvisor.Runtime.t;
  audit : Qvisor.Audit.t;
  remediation : Remediation.t;
  rng : Engine.Rng.t;
  tel : Engine.Telemetry.t;
  tsdb : Engine.Tsdb.t;
  started_wall : float;
  mutable next_snapshot : float;
  num_hosts : int;
  traffic : (int, bool ref) Hashtbl.t;  (* tenant id -> arrivals-alive flag *)
  ctl_listen : Unix.file_descr;
  http_listen : Unix.file_descr;
  bound_port : int;
  mutable conns : conn list;
  mutable draining : bool;
  mutable stopping : bool;
  mutable remediations : int;
}

let epoch t = Qvisor.Runtime.resyntheses t.runtime + 1

let sim_time t = Engine.Sim.now t.sim

let tsdb t = t.tsdb

let uptime_seconds t = Unix.gettimeofday () -. t.started_wall

let http_port t = t.bound_port

let socket_path t = t.config.socket_path

let stop t = t.stopping <- true

let health t = Qvisor.Audit.health t.audit

(* Every admitted epoch re-derives the objectives from the new plan. *)
let rederive t = Qvisor.Audit.rederive t.audit (Qvisor.Runtime.plan t.runtime)

(* ------------------------------------------------------------------ *)
(* Retention store                                                     *)
(* ------------------------------------------------------------------ *)

let annotate t ~kind ?tenant ~detail () =
  Engine.Tsdb.annotate t.tsdb ~time:(Engine.Sim.now t.sim) ~kind ?tenant ~detail
    ()

let snapshot t = Engine.Tsdb.snapshot t.tsdb t.tel ~time:(Engine.Sim.now t.sim)

let audit_line t json =
  match t.config.audit with
  | None -> ()
  | Some oc ->
    output_string oc (Engine.Json.to_string json);
    output_char oc '\n';
    flush oc

let execute_remediation t (tn : T.t) ~attempt ~action ~now =
  let result =
    match (action : Remediation.action) with
    | Remediation.Refresh -> Qvisor.Runtime.refresh t.runtime
    | Remediation.Coarsen { levels } -> Qvisor.Runtime.coarsen t.runtime ~levels
  in
  (match result with
  | Ok () ->
    t.remediations <- t.remediations + 1;
    rederive t
  | Error _ -> ());
  annotate t ~kind:"remediation" ~tenant:tn.T.name
    ~detail:
      (Printf.sprintf "attempt %d: %s (%s)" attempt
         (Remediation.action_to_string action)
         (match result with Ok () -> "applied" | Error _ -> "failed"))
    ();
  audit_line t
    (Remediation.audit_record ~now ~id:tn.T.id ~name:tn.T.name ~attempt
       ~action ~result ~epoch:(epoch t))

let tick t =
  let now = Engine.Sim.now t.sim in
  List.iter
    (fun (tn : T.t) ->
      let id = tn.T.id in
      Qvisor.Audit.observe t.audit tn;
      (match
         Remediation.observe t.remediation ~id ~now
           ~levels:(Qvisor.Runtime.config t.runtime).Qvisor.Synthesizer.levels
           (Engine.Health.state (health t) ~id)
       with
      | Remediation.Hold -> ()
      | Remediation.Fire { attempt; action } ->
        execute_remediation t tn ~attempt ~action ~now);
      Qvisor.Audit.mirror t.audit tn)
    (Qvisor.Runtime.tenants t.runtime)

(* ------------------------------------------------------------------ *)
(* Traffic                                                            *)
(* ------------------------------------------------------------------ *)

let deadline_driven (tn : T.t) =
  match tn.T.algorithm with "edf" | "lstf" -> true | _ -> false

let start_traffic t (tn : T.t) =
  let id = tn.T.id in
  let active = ref true in
  Hashtbl.replace t.traffic id active;
  let rng = Engine.Rng.split t.rng in
  let ranker = Fig4.ranker scenario tn.T.algorithm in
  let deadline = deadline_driven tn in
  let dist = Netsim.Workload.data_mining () in
  let mean_size =
    if deadline then float_of_int deadline_flow_bytes
    else Engine.Rng.Empirical.mean dist
  in
  let rate =
    Netsim.Workload.flow_arrival_rate ~load:t.config.load
      ~num_hosts:t.num_hosts ~access_rate:scenario.Fig4.access_rate
      ~mean_flow_size:mean_size
  in
  let completed =
    Engine.Telemetry.counter t.tel
      (Printf.sprintf "daemon.tenant.%d.flows_completed" id)
  in
  let started =
    Engine.Telemetry.counter t.tel
      (Printf.sprintf "daemon.tenant.%d.flows_started" id)
  in
  let rec arrival () =
    if !active && not t.draining && not t.stopping then begin
      let src, dst = Engine.Rng.pair_distinct rng ~n:t.num_hosts in
      let size =
        if deadline then deadline_flow_bytes
        else max 1 (int_of_float (Engine.Rng.Empirical.sample dist rng))
      in
      let deadline_at =
        if deadline then
          Some
            (Engine.Sim.now t.sim
            +. scenario.Fig4.cbr_deadline
               *. Engine.Rng.float_range rng ~lo:0.5 ~hi:1.5)
        else None
      in
      ignore
        (Netsim.Transport.start_flow t.transport ~tenant:id ~ranker ~src ~dst
           ~size ?deadline:deadline_at
           ~on_complete:(fun _ -> Engine.Telemetry.Counter.incr completed)
           ());
      Engine.Telemetry.Counter.incr started;
      Engine.Sim.schedule_after_ t.sim
        ~delay:(Engine.Rng.exponential rng ~mean:(1. /. rate))
        arrival
    end
  in
  Engine.Sim.schedule_after_ t.sim
    ~delay:(Engine.Rng.exponential rng ~mean:(1. /. rate))
    arrival

let stop_traffic t ~tenant_id =
  match Hashtbl.find_opt t.traffic tenant_id with
  | None -> ()
  | Some active ->
    active := false;
    Hashtbl.remove t.traffic tenant_id

(* ------------------------------------------------------------------ *)
(* Control plane                                                      *)
(* ------------------------------------------------------------------ *)

let names tenants = List.map (fun tn -> tn.T.name) tenants

let status t =
  {
    Proto.epoch = epoch t;
    sim_time = Engine.Sim.now t.sim;
    uptime_seconds = uptime_seconds t;
    draining = t.draining;
    policy = Qvisor.Policy.to_string (Qvisor.Runtime.policy t.runtime);
    tenants =
      List.map
        (fun (tn : T.t) ->
          {
            Proto.ts_id = tn.T.id;
            ts_name = tn.T.name;
            ts_algorithm = tn.T.algorithm;
            ts_health = Engine.Health.state (health t) ~id:tn.T.id;
          })
        (Qvisor.Runtime.tenants t.runtime);
    resyntheses = Qvisor.Runtime.resyntheses t.runtime;
    remediations = t.remediations;
    tsdb_series = Engine.Tsdb.series_count t.tsdb;
    tsdb_memory_bytes = Engine.Tsdb.memory_bytes t.tsdb;
  }

let unavailable op =
  Error
    (Qvisor.Error.Unavailable
       (Printf.sprintf "daemon is draining; %s refused" op))

let handle_request t (req : Proto.request) : Proto.outcome =
  match req with
  | Proto.Status -> Ok (Proto.Status_reply (status t))
  | Proto.Drain ->
    t.draining <- true;
    Ok Proto.Draining
  | Proto.Shutdown ->
    t.stopping <- true;
    Ok Proto.Shutting_down
  | Proto.Tenant_add _ when t.draining -> unavailable "tenant-add"
  | Proto.Tenant_remove _ when t.draining -> unavailable "tenant-remove"
  | Proto.Policy_update _ when t.draining -> unavailable "policy-update"
  | Proto.Tenant_add { tenant; policy } -> (
    let current = Qvisor.Runtime.tenants t.runtime in
    if List.exists (fun x -> x.T.name = tenant.T.name) current then
      Error
        (Qvisor.Error.Config
           (Printf.sprintf "tenant name %S already present" tenant.T.name))
    else
      let policy' =
        Option.value policy ~default:(Qvisor.Runtime.policy t.runtime)
      in
      match
        Qvisor.Policy.validate policy' ~known:(names (current @ [ tenant ]))
      with
      | Error e -> Error e
      | Ok () -> (
        (* Runtime.add_tenant synthesizes the extended plan off to the
           side and swaps only on success: admission is atomic. *)
        match Qvisor.Runtime.add_tenant t.runtime tenant ?policy () with
        | Error e -> Error e
        | Ok () ->
          rederive t;
          start_traffic t tenant;
          Qvisor.Audit.mirror t.audit tenant;
          Ok (Proto.Added { epoch = epoch t })))
  | Proto.Tenant_remove { tenant_id; policy } -> (
    match Qvisor.Runtime.remove_tenant t.runtime ~tenant_id ?policy () with
    | Error e -> Error e
    | Ok () ->
      stop_traffic t ~tenant_id;
      Remediation.forget t.remediation ~id:tenant_id;
      rederive t;
      Ok (Proto.Removed { epoch = epoch t }))
  | Proto.Policy_update policy -> (
    let current = Qvisor.Runtime.tenants t.runtime in
    match Qvisor.Policy.validate policy ~known:(names current) with
    | Error e -> Error e
    | Ok () -> (
      match Qvisor.Runtime.update_policy t.runtime policy with
      | Error e -> Error e
      | Ok () ->
        rederive t;
        Ok (Proto.Updated { epoch = epoch t })))

(* ------------------------------------------------------------------ *)
(* Scrape surface                                                     *)
(* ------------------------------------------------------------------ *)

let build_version = "0.9.0"

let metrics_body t =
  let tenants = Qvisor.Runtime.tenants t.runtime in
  let tenant_names = List.map (fun tn -> (tn.T.id, tn.T.name)) tenants in
  let live =
    List.concat_map (fun tn -> [ tn.T.name; string_of_int tn.T.id ]) tenants
  in
  (* The registry keeps counters of departed tenants forever (monotonic by
     contract); the scrape surface only shows the serving population. *)
  let keep (s : Engine.Exposition.sample) =
    match List.assoc_opt "tenant" s.Engine.Exposition.labels with
    | None -> true
    | Some v -> List.mem v live
  in
  let families =
    Engine.Exposition.families_of_registry ~tenant_names t.tel
    |> List.filter_map (fun (f : Engine.Exposition.family) ->
           match List.filter keep f.Engine.Exposition.samples with
           | [] -> None
           | samples -> Some { f with Engine.Exposition.samples })
  in
  let gauge name help value =
    Engine.Exposition.family ~name ~help Engine.Exposition.Gauge
      [ { Engine.Exposition.sample_name = name; labels = []; value } ]
  in
  let extra =
    [
      gauge "qvisor_epoch" "plan generation (1 + resyntheses)"
        (float_of_int (epoch t));
      gauge "qvisor_daemon_draining" "1 while draining, else 0"
        (if t.draining then 1. else 0.);
      gauge "qvisor_uptime_seconds" "wall-clock seconds since daemon start"
        (uptime_seconds t);
      Engine.Exposition.family ~name:"qvisor_build_info"
        ~help:"build metadata; the value is always 1" Engine.Exposition.Gauge
        [
          {
            Engine.Exposition.sample_name = "qvisor_build_info";
            labels =
              [ ("version", build_version); ("ocaml_version", Sys.ocaml_version) ];
            value = 1.;
          };
        ];
      gauge "qvisor_tsdb_series" "retention-store series interned"
        (float_of_int (Engine.Tsdb.series_count t.tsdb));
      gauge "qvisor_tsdb_memory_bytes"
        "retention-store ring footprint (fixed per series)"
        (float_of_int (Engine.Tsdb.memory_bytes t.tsdb));
      Engine.Exposition.family ~name:"qvisor_remediations_total"
        ~help:"remediation actions applied" Engine.Exposition.Counter
        [
          {
            Engine.Exposition.sample_name = "qvisor_remediations_total";
            labels = [];
            value = float_of_int t.remediations;
          };
        ];
    ]
  in
  Engine.Exposition.render_families
    (families @ extra @ [ Engine.Exposition.scrape_timestamp_family () ])

let healthz_body t =
  let worst = Engine.Health.worst (health t) in
  ( Engine.Health.state_to_string worst ^ "\n",
    worst <> Engine.Health.Violating )

(* ------------------------------------------------------------------ *)
(* Range query surface                                                *)
(* ------------------------------------------------------------------ *)

(* ['*'] matches any substring, everything else is literal — enough to
   select e.g. [net.tenant.*.drop] without a regex engine. *)
let glob_match ~pattern name =
  let pl = String.length pattern and nl = String.length name in
  let rec go p n =
    if p = pl then n = nl
    else
      match pattern.[p] with
      | '*' -> go (p + 1) n || (n < nl && go p (n + 1))
      | c -> n < nl && name.[n] = c && go (p + 1) (n + 1)
  in
  go 0 0

(* The dotted registry names carry tenant ids inline: [net.tenant.3.drop],
   [slo.tenant.3.fast_burn].  Pull the id back out so /query can filter
   and label per tenant. *)
let tenant_id_of_series name =
  let n = String.length name in
  let rec find i =
    if i + 7 > n then None
    else if
      (i = 0 || name.[i - 1] = '.') && String.sub name i 7 = "tenant."
    then begin
      let j = ref (i + 7) in
      while !j < n && name.[!j] >= '0' && name.[!j] <= '9' do
        incr j
      done;
      if !j > i + 7 && (!j = n || name.[!j] = '.') then
        int_of_string_opt (String.sub name (i + 7) (!j - i - 7))
      else find (i + 1)
    end
    else find (i + 1)
  in
  find 0

let query_body t params =
  let module J = Engine.Json in
  let ( let* ) = Result.bind in
  let now = Engine.Tsdb.last_time t.tsdb in
  let float_param name ~default =
    match List.assoc_opt name params with
    | None | Some "" -> Ok default
    | Some v -> (
      match float_of_string_opt v with
      | Some f when Float.is_finite f -> Ok f
      | _ -> Error (Printf.sprintf "parameter %S is not a number: %S" name v))
  in
  let* start = float_param "start" ~default:(-60.) in
  let* stop = float_param "end" ~default:0. in
  let* step = float_param "step" ~default:0. in
  (* start/end at or below zero are relative to the newest sample, so
     [?start=-60] is always "the last minute". *)
  let absolute v = if v <= 0. then Float.max 0. (now +. v) else v in
  let start = absolute start in
  let stop = absolute stop in
  let stop = if stop <= start then start +. 1. else stop in
  let tenants = Qvisor.Runtime.tenants t.runtime in
  let name_of_id id =
    List.find_opt (fun (tn : T.t) -> tn.T.id = id) tenants
    |> Option.map (fun (tn : T.t) -> tn.T.name)
  in
  let* tenant_id =
    match List.assoc_opt "tenant" params with
    | None | Some "" -> Ok None
    | Some name -> (
      match List.find_opt (fun (tn : T.t) -> tn.T.name = name) tenants with
      | Some tn -> Ok (Some tn.T.id)
      | None -> Error (Printf.sprintf "unknown tenant %S" name))
  in
  let pattern =
    match List.assoc_opt "series" params with
    | None | Some "" -> "*"
    | Some p -> p
  in
  let selected =
    Engine.Tsdb.names t.tsdb
    |> List.filter (fun (name, _) ->
           glob_match ~pattern name
           &&
           match tenant_id with
           | None -> true
           | Some id -> tenant_id_of_series name = Some id)
  in
  let step_opt = if step > 0. then Some step else None in
  let series_json =
    List.filter_map
      (fun (name, _) ->
        match Engine.Tsdb.query t.tsdb ~name ~start ~stop ?step:step_opt () with
        | None -> None
        | Some r ->
          let tenant = Option.bind (tenant_id_of_series name) name_of_id in
          let points =
            Array.to_list r.Engine.Tsdb.r_points
            |> List.map (function
                 | None -> J.Null
                 | Some (p : Engine.Tsdb.point) ->
                   J.List
                     [
                       J.Number (float_of_int p.Engine.Tsdb.p_count);
                       J.Number p.Engine.Tsdb.p_sum;
                       J.Number p.Engine.Tsdb.p_min;
                       J.Number p.Engine.Tsdb.p_max;
                       J.Number p.Engine.Tsdb.p_last;
                     ])
          in
          Some
            (J.Obj
               [
                 ("name", J.String name);
                 ( "kind",
                   J.String (Engine.Tsdb.kind_to_string r.Engine.Tsdb.r_kind) );
                 ( "tenant",
                   match tenant with Some s -> J.String s | None -> J.Null );
                 ("start", J.Number r.Engine.Tsdb.r_start);
                 ("step", J.Number r.Engine.Tsdb.r_step);
                 ("points", J.List points);
               ]))
      selected
  in
  (* Annotation window widened by a relative epsilon so an incident
     stamped exactly at the newest sample still shows up. *)
  let ann_stop = stop +. (1e-9 *. (1. +. Float.abs stop)) in
  let annotations =
    Engine.Tsdb.annotations ~start ~stop:ann_stop t.tsdb
    |> List.map (fun (a : Engine.Tsdb.annotation) ->
           J.Obj
             [
               ("t", J.Number a.Engine.Tsdb.a_time);
               ("kind", J.String a.Engine.Tsdb.a_kind);
               ( "tenant",
                 match a.Engine.Tsdb.a_tenant with
                 | Some s -> J.String s
                 | None -> J.Null );
               ("detail", J.String a.Engine.Tsdb.a_detail);
             ])
  in
  let tenants_json =
    List.map
      (fun (tn : T.t) ->
        J.Obj
          [
            ("id", J.Number (float_of_int tn.T.id));
            ("name", J.String tn.T.name);
            ("algorithm", J.String tn.T.algorithm);
            ( "health",
              J.String
                (Engine.Health.state_to_string
                   (Engine.Health.state (health t) ~id:tn.T.id)) );
          ])
      tenants
  in
  Ok
    (J.to_string
       (J.Obj
          [
            ("now", J.Number now);
            ("sim_time", J.Number (Engine.Sim.now t.sim));
            ("uptime_seconds", J.Number (uptime_seconds t));
            ("start", J.Number start);
            ("end", J.Number stop);
            ("series_count", J.Number (float_of_int (Engine.Tsdb.series_count t.tsdb)));
            ( "memory_bytes",
              J.Number (float_of_int (Engine.Tsdb.memory_bytes t.tsdb)) );
            ( "per_series_bytes",
              J.Number (float_of_int (Engine.Tsdb.per_series_bytes t.tsdb)) );
            ("tenants", J.List tenants_json);
            ("series", J.List series_json);
            ("annotations", J.List annotations);
          ])
    ^ "\n")

(* ------------------------------------------------------------------ *)
(* Sockets                                                            *)
(* ------------------------------------------------------------------ *)

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ignore (Unix.select [] [ fd ] [] 0.05);
      write_all fd s off len
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

let send fd s = write_all fd s 0 (String.length s)

let close_conn c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let bind_control path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 16;
     Unix.set_nonblock fd;
     Ok fd
   with Unix.Unix_error (err, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     Error
       (Qvisor.Error.Config
          (Printf.sprintf "cannot bind control socket %s: %s" path
             (Unix.error_message err))))

let bind_http port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 16;
    Unix.set_nonblock fd;
    let bound =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> port
    in
    Ok (fd, bound)
  with Unix.Unix_error (err, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error
      (Qvisor.Error.Config
         (Printf.sprintf "cannot bind http port %d: %s" port
            (Unix.error_message err)))

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

(* Answer every complete line buffered; a trailing partial line stays
   buffered for the next read. *)
let process_control_lines t c =
  let input = Buffer.contents c.pending in
  Buffer.clear c.pending;
  let rec from start =
    match String.index_from_opt input start '\n' with
    | None ->
      Buffer.add_substring c.pending input start (String.length input - start)
    | Some i ->
      let line = strip_cr (String.sub input start (i - start)) in
      if line <> "" then begin
        let outcome =
          match Proto.parse_request line with
          | Error e -> Error e
          | Ok req -> handle_request t req
        in
        try send c.fd (Proto.outcome_line outcome)
        with Unix.Unix_error _ -> close_conn c
      end;
      if not c.closed then from (i + 1)
  in
  from 0

let serve_http t c =
  let head = Buffer.contents c.pending in
  if Http.head_complete head then begin
    let resp =
      match Http.parse_request head with
      | Error e -> Http.bad_request e
      | Ok { Http.meth = "GET"; target } -> (
        match Http.split_target target with
        | "/metrics", _ -> Http.response (metrics_body t)
        | "/healthz", _ ->
          let body, ok = healthz_body t in
          if ok then Http.response ~content_type:"text/plain" body
          else
            Http.response ~status:503 ~reason:"Service Unavailable"
              ~content_type:"text/plain" body
        | "/query", params -> (
          match query_body t params with
          | Ok body -> Http.response ~content_type:"application/json" body
          | Error msg -> Http.bad_request msg)
        | _ -> Http.not_found)
      | Ok _ -> Http.method_not_allowed
    in
    (try send c.fd resp with Unix.Unix_error _ -> ());
    close_conn c
  end

(* A client whose unanswered input outgrows [max_pending_bytes] gets a
   typed refusal and is closed. *)
let refuse c =
  let answer =
    match c.kind with
    | `Ctl ->
      Proto.outcome_line
        (Error
           (Qvisor.Error.Config
              (Printf.sprintf "request line exceeds %d bytes" max_pending_bytes)))
    | `Http ->
      Http.bad_request
        (Printf.sprintf "request head exceeds %d bytes" max_pending_bytes)
  in
  (try send c.fd answer with Unix.Unix_error _ -> ());
  close_conn c

let read_conn t c =
  let bytes = Bytes.create 4096 in
  match Unix.read c.fd bytes 0 4096 with
  | 0 -> close_conn c
  | n ->
    Buffer.add_subbytes c.pending bytes 0 n;
    (match c.kind with
    | `Ctl -> process_control_lines t c
    | `Http -> serve_http t c);
    if (not c.closed) && Buffer.length c.pending > max_pending_bytes then
      refuse c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()
  | exception Unix.Unix_error (_, _, _) -> close_conn c

let rec accept_all t kind fd =
  match Unix.accept ~cloexec:true fd with
  | cfd, _ ->
    Unix.set_nonblock cfd;
    t.conns <-
      { fd = cfd; kind; pending = Buffer.create 256; closed = false } :: t.conns;
    accept_all t kind fd
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()

let poll t ~timeout =
  let fds =
    t.ctl_listen :: t.http_listen
    :: List.filter_map (fun c -> if c.closed then None else Some c.fd) t.conns
  in
  match Unix.select fds [] [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, _, _ ->
    if List.memq t.ctl_listen readable then accept_all t `Ctl t.ctl_listen;
    if List.memq t.http_listen readable then accept_all t `Http t.http_listen;
    List.iter
      (fun c -> if (not c.closed) && List.memq c.fd readable then read_conn t c)
      t.conns;
    t.conns <- List.filter (fun c -> not c.closed) t.conns

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

let create config =
  let ( let* ) = Result.bind in
  let* () =
    if config.slice <= 0. then
      Error (Qvisor.Error.Config "slice must be positive")
    else if config.load <= 0. then
      Error (Qvisor.Error.Config "load must be positive")
    else if config.drain_timeout < 0. then
      Error (Qvisor.Error.Config "drain_timeout must be non-negative")
    else Ok ()
  in
  let synth_config =
    { Qvisor.Synthesizer.default_config with levels = config.levels }
  in
  let sim = Engine.Sim.create () in
  let* runtime =
    Qvisor.Runtime.create ~config:synth_config ~telemetry:config.telemetry
      ~tenants:config.tenants ~policy:config.policy ()
  in
  let tsdb = Engine.Tsdb.create () in
  let health =
    Engine.Health.create ?alerts:config.alerts
      ~on_transition:(fun (tr : Engine.Health.transition) ->
        Engine.Tsdb.annotate tsdb ~time:tr.Engine.Health.tr_time ~kind:"health"
          ~tenant:tr.Engine.Health.tr_name
          ~detail:
            (Printf.sprintf "%s: %s -> %s%s" tr.Engine.Health.tr_source
               (Engine.Health.state_to_string tr.Engine.Health.tr_from)
               (Engine.Health.state_to_string tr.Engine.Health.tr_to)
               (if tr.Engine.Health.tr_detail = "" then ""
                else ": " ^ tr.Engine.Health.tr_detail))
          ())
      ()
  in
  let audit =
    Qvisor.Audit.create ~sim ~telemetry:config.telemetry ~health ~guard:false
      ~capacity_pkts:scenario.Fig4.queue_capacity_pkts
      ~link_rate:scenario.Fig4.access_rate
      ~rho:(fun _ -> config.load *. scenario.Fig4.access_rate /. 8.)
      (Qvisor.Runtime.plan runtime)
  in
  let topo, routing = Fig4.fabric scenario in
  let transport = Netsim.Transport.create ~sim () in
  let capacity_pkts = scenario.Fig4.queue_capacity_pkts in
  let make_qdisc =
    match config.inject_qdisc with
    | Some f -> fun _ -> f ~capacity_pkts
    | None -> fun _ -> Sched.Bucket_queue.create ~name:"pifo" ~capacity_pkts ()
  in
  (* The recorder's trigger re-fires on every dump; one annotation per
     link per second is plenty for the incident track. *)
  let spike_last = Hashtbl.create 8 in
  let net =
    Netsim.Net.create ~sim ~topo ~routing ~make_qdisc
      ~flight:Netsim.Net.default_flight
      ~on_anomaly:(fun ~link_id _recorder ->
        let now = Engine.Sim.now sim in
        let rearmed =
          match Hashtbl.find_opt spike_last link_id with
          | Some t0 -> now -. t0 >= 1.0
          | None -> true
        in
        if rearmed then begin
          Hashtbl.replace spike_last link_id now;
          Engine.Tsdb.annotate tsdb ~time:now ~kind:"drop-spike"
            ~detail:
              (Printf.sprintf "flight-recorder trigger on link %d" link_id)
            ()
        end)
      ~preprocess:(Qvisor.Runtime.process runtime)
      ~on_enqueue:(Qvisor.Audit.on_enqueue audit)
      ~on_dequeue:(Qvisor.Audit.on_dequeue audit)
      ~on_drop:(Qvisor.Audit.on_drop audit)
      ~on_tie_inversion:(Qvisor.Audit.on_tie_inversion audit)
      ~telemetry:config.telemetry
      ~deliver:(Netsim.Transport.deliver transport)
      ()
  in
  Netsim.Transport.attach transport net;
  let* ctl_listen = bind_control config.socket_path in
  let* http_listen, bound_port =
    match bind_http config.http_port with
    | Ok v -> Ok v
    | Error e ->
      (try Unix.close ctl_listen with Unix.Unix_error _ -> ());
      (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
      Error e
  in
  let t =
    {
      config;
      sim;
      transport;
      net;
      runtime;
      audit;
      remediation = Remediation.create ~config:config.remediation ();
      rng = Engine.Rng.create ~seed:config.seed;
      tel = config.telemetry;
      tsdb;
      started_wall = Unix.gettimeofday ();
      next_snapshot = 0.;
      num_hosts = scenario.Fig4.leaves * scenario.Fig4.hosts_per_leaf;
      traffic = Hashtbl.create 8;
      ctl_listen;
      http_listen;
      bound_port;
      conns = [];
      draining = false;
      stopping = false;
      remediations = 0;
    }
  in
  List.iter (fun tn -> start_traffic t tn) (Qvisor.Runtime.tenants runtime);
  List.iter (Qvisor.Audit.mirror audit) (Qvisor.Runtime.tenants runtime);
  Ok t

let cleanup t =
  List.iter close_conn t.conns;
  t.conns <- [];
  (try Unix.close t.ctl_listen with Unix.Unix_error _ -> ());
  (try Unix.close t.http_listen with Unix.Unix_error _ -> ());
  (try Unix.unlink t.config.socket_path with Unix.Unix_error _ -> ());
  Option.iter flush t.config.alerts;
  Option.iter flush t.config.audit

let serve t =
  (* Pacing anchor: the wall instant at which simulated time 0 "happened".
     Serving stays ahead of this clock only by the unserved slice. *)
  let wall0 = Unix.gettimeofday () -. Engine.Sim.now t.sim in
  while not t.stopping do
    let target = Engine.Sim.now t.sim +. t.config.slice in
    Engine.Sim.run ~until:target t.sim;
    tick t;
    let now = Engine.Sim.now t.sim in
    if now >= t.next_snapshot then begin
      snapshot t;
      t.next_snapshot <- now +. t.config.snapshot_interval
    end;
    if t.config.pace then begin
      (* Sleep inside [poll] until the wall clock catches up to the
         simulated clock, so pacing never starves the control plane. *)
      let rec pace_wait () =
        let ahead = wall0 +. Engine.Sim.now t.sim -. Unix.gettimeofday () in
        if ahead > 0. && not t.stopping then begin
          poll t ~timeout:(Float.min ahead 0.05);
          pace_wait ()
        end
      in
      pace_wait ();
      poll t ~timeout:0.
    end
    else poll t ~timeout:0.002
  done;
  (* Drain-out: give in-flight flows up to [drain_timeout] simulated
     seconds to land before tearing the fabric down. *)
  let deadline = Engine.Sim.now t.sim +. t.config.drain_timeout in
  let rec drain () =
    if
      Netsim.Transport.active_flows t.transport > 0
      && Engine.Sim.now t.sim < deadline
    then begin
      let before = Engine.Sim.now t.sim in
      Engine.Sim.run
        ~until:(Float.min deadline (before +. t.config.slice))
        t.sim;
      if Engine.Sim.now t.sim > before then drain ()
    end
  in
  drain ();
  cleanup t
