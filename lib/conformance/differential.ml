module IntMap = Map.Make (Int)

type backend_spec = {
  bname : string;
  expect_exact : bool;
  make :
    plan:Qvisor.Synthesizer.plan ->
    capacity_pkts:int ->
    (Sched.Qdisc.t, Qvisor.Error.t) result;
}

let standard_backends () =
  let mk backend_of =
   fun ~plan ~capacity_pkts ->
    Qvisor.Deploy.instantiate ~plan (backend_of capacity_pkts)
  in
  [
    {
      bname = "ideal-pifo";
      expect_exact = true;
      make = mk (fun capacity_pkts -> Qvisor.Deploy.Ideal_pifo { capacity_pkts });
    };
    {
      (* The Map-based PIFO, kept as a second exact backend: every fleet
         doubles as a map-vs-heap differential, so a regression in either
         implementation shows up as a divergence on this pair. *)
      bname = "pifo-map";
      expect_exact = true;
      make =
        (fun ~plan:_ ~capacity_pkts ->
          Ok (Sched.Pifo_queue.create ~name:"pifo-map" ~capacity_pkts ()));
    };
    {
      bname = "sp-bank-8q";
      expect_exact = false;
      make =
        mk (fun cap ->
            Qvisor.Deploy.Sp_bank { num_queues = 8; queue_capacity_pkts = cap });
    };
    {
      bname = "sp-pifo-8q";
      expect_exact = false;
      make =
        mk (fun cap ->
            Qvisor.Deploy.Sp_pifo { num_queues = 8; queue_capacity_pkts = cap });
    };
    {
      bname = "aifo";
      expect_exact = false;
      make =
        mk (fun cap ->
            Qvisor.Deploy.Aifo
              { capacity_pkts = cap; window = 8 * cap; k = 0.1 });
    };
    {
      bname = "drr-8q";
      expect_exact = false;
      make =
        mk (fun cap ->
            Qvisor.Deploy.Drr_bank
              { num_queues = 8; queue_capacity_pkts = cap; quantum_bytes = 1518 });
    };
    {
      bname = "calendar-32";
      expect_exact = false;
      make =
        mk (fun cap ->
            (* 16-bit joint rank space over 32 buckets. *)
            Qvisor.Deploy.Calendar
              { num_buckets = 32; bucket_width = 2048; capacity_pkts = cap });
    };
  ]

let faulty_backend fault =
  {
    bname = "injected:" ^ Fault.to_string fault;
    expect_exact = true;
    make = (fun ~plan:_ ~capacity_pkts -> Ok (Fault.qdisc fault ~capacity_pkts));
  }

(* ------------------------------------------------------------------ *)
(* Single-scenario replay                                             *)
(* ------------------------------------------------------------------ *)

type replay = {
  served : Oracle.item list;
  dropped : int list;
  dequeues : int;
  inversions : int;
  magnitude_sum : int;
  magnitude_max : int;
  violations : ((string * string) * int) list;
}

type verdict = { matches : bool; divergence : string option }

(* The top-level strict tiers of the plan's policy: tier names rendered in
   policy syntax plus a tenant-id -> tier-index lookup. *)
let tier_info (plan : Qvisor.Synthesizer.plan) =
  let tiers = Qvisor.Policy.strict_tiers plan.Qvisor.Synthesizer.policy in
  let names = Array.of_list (List.map Qvisor.Policy.to_string tiers) in
  let id_of_name =
    List.map
      (fun a ->
        ( a.Qvisor.Synthesizer.tenant.Qvisor.Tenant.name,
          a.Qvisor.Synthesizer.tenant.Qvisor.Tenant.id ))
      plan.Qvisor.Synthesizer.assignments
  in
  let by_tenant = Hashtbl.create 8 in
  List.iteri
    (fun ti tier ->
      List.iter
        (fun name ->
          match List.assoc_opt name id_of_name with
          | Some id -> Hashtbl.replace by_tenant id ti
          | None -> ())
        (Qvisor.Policy.tenant_names tier))
    tiers;
  (names, fun tenant_id -> Hashtbl.find_opt by_tenant tenant_id)

let replay ?(recorder = Engine.Recorder.disabled) ~plan ~qdisc
    (sc : Scenario.t) =
  let pre = Qvisor.Preprocessor.of_plan plan in
  let tier_names, tier_of = tier_info plan in
  let n_tiers = Array.length tier_names in
  let tier_queued = Array.make n_tiers 0 in
  let viol = Array.make_matrix n_tiers n_tiers 0 in
  (* Multiset of queued transformed ranks, for the inversion check. *)
  let queued_ranks = ref IntMap.empty in
  let add_rank r =
    queued_ranks :=
      IntMap.update r
        (function None -> Some 1 | Some c -> Some (c + 1))
        !queued_ranks
  in
  let remove_rank r =
    queued_ranks :=
      IntMap.update r
        (function None -> None | Some 1 -> None | Some c -> Some (c - 1))
        !queued_ranks
  in
  let items = Hashtbl.create 64 in
  (* packet uid -> oracle item *)
  let served = ref [] in
  let dropped = ref [] in
  let dequeues = ref 0 in
  let inversions = ref 0 in
  let mag_sum = ref 0 in
  let mag_max = ref 0 in
  let next_sid = ref 0 in
  let account_removed (it : Oracle.item) =
    remove_rank it.Oracle.rank;
    match tier_of it.Oracle.tenant with
    | Some ti -> tier_queued.(ti) <- tier_queued.(ti) - 1
    | None -> ()
  in
  (* Flight-recorder events carry the scenario sid as uid and the event
     index as the timestamp (conformance replay has no clock), so the
     dump joins with the reproducer's sid vocabulary. *)
  let rec_event ~ei ~kind ~rank_before (it : Oracle.item) =
    Engine.Recorder.record recorder ~time:(float_of_int ei) ~kind
      ~uid:it.Oracle.sid ~link:(-1) ~tenant:it.Oracle.tenant
      ~flow:it.Oracle.tenant ~rank_before ~rank:it.Oracle.rank
  in
  List.iteri
    (fun ei -> function
      | Scenario.Enqueue { tenant; label; size } ->
        let p = Sched.Packet.make ~tenant ~rank:label ~flow:tenant ~size () in
        Qvisor.Preprocessor.process pre p;
        let it =
          { Oracle.sid = !next_sid; tenant; rank = p.Sched.Packet.rank }
        in
        incr next_sid;
        Hashtbl.replace items p.Sched.Packet.uid it;
        rec_event ~ei ~kind:Engine.Recorder.Preprocess ~rank_before:label it;
        rec_event ~ei ~kind:Engine.Recorder.Enqueue ~rank_before:(-1) it;
        let victims = ref [] in
        qdisc.Sched.Qdisc.enqueue_drop p (fun d -> victims := d :: !victims);
        let victims = List.rev !victims in
        if Sched.Qdisc.accepted qdisc p victims then begin
          add_rank it.Oracle.rank;
          match tier_of tenant with
          | Some ti -> tier_queued.(ti) <- tier_queued.(ti) + 1
          | None -> ()
        end;
        List.iter
          (fun (d : Sched.Packet.t) ->
            let dit = Hashtbl.find items d.Sched.Packet.uid in
            dropped := dit.Oracle.sid :: !dropped;
            let arriving = d.Sched.Packet.uid = p.Sched.Packet.uid in
            rec_event ~ei
              ~kind:
                (if arriving then Engine.Recorder.Drop
                 else Engine.Recorder.Evict)
              ~rank_before:(-1) dit;
            (* A dropped packet other than the arrival was evicted from
               the queue: unaccount it. *)
            if not arriving then account_removed dit)
          victims
      | Scenario.Dequeue -> (
        match qdisc.Sched.Qdisc.dequeue () with
        | None -> ()
        | Some p ->
          let it = Hashtbl.find items p.Sched.Packet.uid in
          rec_event ~ei ~kind:Engine.Recorder.Dequeue ~rank_before:(-1) it;
          account_removed it;
          incr dequeues;
          (match IntMap.min_binding_opt !queued_ranks with
          | Some (min_rank, _) when min_rank < it.Oracle.rank ->
            incr inversions;
            let m = it.Oracle.rank - min_rank in
            mag_sum := !mag_sum + m;
            if m > !mag_max then mag_max := m
          | _ -> ());
          (match tier_of it.Oracle.tenant with
          | Some tj ->
            for ti = 0 to tj - 1 do
              if tier_queued.(ti) > 0 then viol.(ti).(tj) <- viol.(ti).(tj) + 1
            done
          | None -> ());
          served := it :: !served))
    sc.Scenario.events;
  let violations =
    List.concat
      (List.init n_tiers (fun i ->
           List.filter_map
             (fun j ->
               if j > i then
                 Some ((tier_names.(i), tier_names.(j)), viol.(i).(j))
               else None)
             (List.init n_tiers Fun.id)))
  in
  {
    served = List.rev !served;
    dropped = List.rev !dropped;
    dequeues = !dequeues;
    inversions = !inversions;
    magnitude_sum = !mag_sum;
    magnitude_max = !mag_max;
    violations;
  }

let sids l = List.map (fun (it : Oracle.item) -> it.Oracle.sid) l

(* First index at which two sid sequences part ways. *)
let first_diff la lb =
  let rec go i la lb =
    match (la, lb) with
    | [], [] -> None
    | x :: _, [] -> Some (i, Some x, None)
    | [], y :: _ -> Some (i, None, Some y)
    | x :: ra, y :: rb ->
      if x = y then go (i + 1) ra rb else Some (i, Some x, Some y)
  in
  go 0 la lb

let side = function
  | Some sid -> Printf.sprintf "sid %d" sid
  | None -> "nothing"

let compare_to_oracle (o : Oracle.outcome) (r : replay) =
  match first_diff (sids o.Oracle.served) (sids r.served) with
  | Some (i, a, b) ->
    {
      matches = false;
      divergence =
        Some
          (Printf.sprintf "dequeue #%d: oracle served %s, backend served %s" i
             (side a) (side b));
    }
  | None -> (
    match first_diff o.Oracle.dropped r.dropped with
    | Some (i, a, b) ->
      {
        matches = false;
        divergence =
          Some
            (Printf.sprintf "drop #%d: oracle dropped %s, backend dropped %s"
               i (side a) (side b));
      }
    | None -> { matches = true; divergence = None })

let run_scenario ?(backends = standard_backends ()) (sc : Scenario.t) =
  match Scenario.plan sc with
  | Error e -> Error e
  | Ok plan ->
    let oracle = Oracle.run ~plan sc in
    let rec go acc = function
      | [] -> Ok (oracle, List.rev acc)
      | b :: rest -> (
        match b.make ~plan ~capacity_pkts:sc.Scenario.capacity_pkts with
        | Error e -> Error e
        | Ok qdisc ->
          let r = replay ~plan ~qdisc sc in
          go ((b, r, compare_to_oracle oracle r) :: acc) rest)
    in
    go [] backends

let fails_oracle ~backend sc =
  match Scenario.plan sc with
  | Error _ -> false
  | Ok plan -> (
    match backend.make ~plan ~capacity_pkts:sc.Scenario.capacity_pkts with
    | Error _ -> false
    | Ok qdisc ->
      let oracle = Oracle.run ~plan sc in
      not (compare_to_oracle oracle (replay ~plan ~qdisc sc)).matches)

(* ------------------------------------------------------------------ *)
(* Seeded fleets                                                      *)
(* ------------------------------------------------------------------ *)

type backend_stats = {
  backend : string;
  expect_exact : bool;
  cases : int;
  exact_cases : int;
  dequeues : int;
  inversions : int;
  magnitude_sum : int;
  magnitude_max : int;
  strict_violations : int;
}

type failure = {
  case_index : int;
  case_seed : int;
  backend : string;
  divergence : string;
}

type run_result = {
  seed : int;
  cases : int;
  total_events : int;
  total_enqueues : int;
  stats : backend_stats list;
  failures : failure list;
  errors : (int * string) list;
}

(* What a worker domain sends back per case: plain data, no closures. *)
type case_row = {
  row_exact : bool;
  row_dequeues : int;
  row_inversions : int;
  row_mag_sum : int;
  row_mag_max : int;
  row_violations : int;
  row_divergence : string option;
}

type case_summary = {
  cs_index : int;
  cs_seed : int;
  cs_events : int;
  cs_enqueues : int;
  cs_rows : case_row list;  (** aligned with the backend list *)
  cs_error : string option;
  cs_profile : Engine.Span.t;  (** the worker's private span profiler *)
}

let run_cases ?(jobs = 1) ?telemetry ?(profiler = Engine.Span.disabled)
    ?(backends = standard_backends ()) ~seed ~cases () =
  let per_case i =
    (* A private profiler per case, merged below in case order — the
       merged span structure is independent of [jobs]. *)
    let prof =
      if Engine.Span.is_enabled profiler then Engine.Span.create ()
      else Engine.Span.disabled
    in
    Engine.Span.with_ prof ~name:"conformance.case" @@ fun () ->
    let cseed = Engine.Rng.derive ~seed i in
    let sc =
      Engine.Span.with_ prof ~name:"conformance.generate" @@ fun () ->
      Scenario.generate ~seed:cseed
    in
    let base =
      {
        cs_index = i;
        cs_seed = cseed;
        cs_events = Scenario.num_events sc;
        cs_enqueues = Scenario.num_enqueues sc;
        cs_rows = [];
        cs_error = None;
        cs_profile = prof;
      }
    in
    match
      Engine.Span.with_ prof ~name:"conformance.verify" @@ fun () ->
      run_scenario ~backends sc
    with
    | Error e -> { base with cs_error = Some (Qvisor.Error.to_string e) }
    | Ok (_oracle, rows) ->
      {
        base with
        cs_rows =
          List.map
            (fun (_b, (r : replay), (v : verdict)) ->
              {
                row_exact = v.matches;
                row_dequeues = r.dequeues;
                row_inversions = r.inversions;
                row_mag_sum = r.magnitude_sum;
                row_mag_max = r.magnitude_max;
                row_violations =
                  List.fold_left (fun a (_, c) -> a + c) 0 r.violations;
                row_divergence = v.divergence;
              })
            rows;
      }
  in
  let summaries =
    Engine.Parallel.map ~jobs:(max 1 jobs) per_case (List.init cases Fun.id)
  in
  List.iter
    (fun cs ->
      Engine.Span.merge_into ~into:profiler ~tid:(cs.cs_index + 1)
        cs.cs_profile)
    summaries;
  let n_backends = List.length backends in
  let acc =
    Array.of_list
      (List.map
         (fun b ->
           {
             backend = b.bname;
             expect_exact = b.expect_exact;
             cases = 0;
             exact_cases = 0;
             dequeues = 0;
             inversions = 0;
             magnitude_sum = 0;
             magnitude_max = 0;
             strict_violations = 0;
           })
         backends)
  in
  let backend_arr = Array.of_list backends in
  let total_events = ref 0 in
  let total_enqueues = ref 0 in
  let failures = ref [] in
  let errors = ref [] in
  List.iter
    (fun cs ->
      total_events := !total_events + cs.cs_events;
      total_enqueues := !total_enqueues + cs.cs_enqueues;
      match cs.cs_error with
      | Some e -> errors := (cs.cs_index, e) :: !errors
      | None ->
        List.iteri
          (fun bi row ->
            if bi < n_backends then begin
              let s = acc.(bi) in
              acc.(bi) <-
                {
                  s with
                  cases = s.cases + 1;
                  exact_cases = (s.exact_cases + if row.row_exact then 1 else 0);
                  dequeues = s.dequeues + row.row_dequeues;
                  inversions = s.inversions + row.row_inversions;
                  magnitude_sum = s.magnitude_sum + row.row_mag_sum;
                  magnitude_max = max s.magnitude_max row.row_mag_max;
                  strict_violations = s.strict_violations + row.row_violations;
                };
              if backend_arr.(bi).expect_exact && not row.row_exact then
                failures :=
                  {
                    case_index = cs.cs_index;
                    case_seed = cs.cs_seed;
                    backend = backend_arr.(bi).bname;
                    divergence =
                      Option.value row.row_divergence ~default:"divergence";
                  }
                  :: !failures
            end)
          cs.cs_rows)
    summaries;
  let stats = Array.to_list acc in
  (match telemetry with
  | Some tel when Engine.Telemetry.is_enabled tel ->
    Engine.Telemetry.Counter.add (Engine.Telemetry.counter tel "conformance.cases") cases;
    Engine.Telemetry.Counter.add
      (Engine.Telemetry.counter tel "conformance.events")
      !total_events;
    Engine.Telemetry.Counter.add
      (Engine.Telemetry.counter tel "conformance.dequeues")
      (List.fold_left (fun a s -> a + s.dequeues) 0 stats);
    Engine.Telemetry.Counter.add
      (Engine.Telemetry.counter tel "conformance.inversions")
      (List.fold_left (fun a s -> a + s.inversions) 0 stats);
    Engine.Telemetry.Counter.add
      (Engine.Telemetry.counter tel "conformance.mismatches")
      (List.length !failures)
  | Some _ | None -> ());
  {
    seed;
    cases;
    total_events = !total_events;
    total_enqueues = !total_enqueues;
    stats;
    failures = List.rev !failures;
    errors = List.rev !errors;
  }

let pp_run ppf r =
  Format.fprintf ppf
    "conformance: seed %d, %d cases, %d events (%d enqueues)@," r.seed r.cases
    r.total_events r.total_enqueues;
  Format.fprintf ppf "%-20s %6s %6s %9s %11s %9s %9s %8s %12s@," "backend"
    "cases" "exact" "dequeues" "inversions" "inv/deq" "mean-mag" "max-mag"
    "strict-viol";
  List.iter
    (fun s ->
      let inv_per_deq =
        if s.dequeues = 0 then 0.
        else float_of_int s.inversions /. float_of_int s.dequeues
      in
      let mean_mag =
        if s.inversions = 0 then 0.
        else float_of_int s.magnitude_sum /. float_of_int s.inversions
      in
      Format.fprintf ppf "%-20s %6d %6d %9d %11d %9.4f %9.1f %8d %12d@,"
        s.backend s.cases s.exact_cases s.dequeues s.inversions inv_per_deq
        mean_mag s.magnitude_max s.strict_violations)
    r.stats;
  (match r.errors with
  | [] -> ()
  | errs ->
    Format.fprintf ppf "errors: %d case(s) failed to synthesize/deploy@,"
      (List.length errs));
  match r.failures with
  | [] ->
    Format.fprintf ppf
      "oracle conformance: all exact backends matched on every case@,"
  | fs ->
    Format.fprintf ppf "oracle conformance: %d DIVERGENCE(S)@,"
      (List.length fs)
