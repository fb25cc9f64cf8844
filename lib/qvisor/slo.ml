type objective = {
  tenant : Tenant.t;
  delay_bound : float option;
  delay_quantile : float;
  drop_budget : float;
  rank_error_budget : float;
}

(* The plan's own worst quantization error over the tenant's declared
   range: what the data plane is expected to do when healthy.  Sampled,
   not exhaustive — ranges can span the whole 16-bit space. *)
let measured_rank_error plan (tenant : Tenant.t) =
  let transform = Synthesizer.transform_of plan ~tenant_id:tenant.Tenant.id in
  let lo = tenant.Tenant.rank_lo and hi = tenant.Tenant.rank_hi in
  let width = hi - lo in
  let samples = min 1024 (width + 1) in
  let worst = ref 0. in
  for i = 0 to samples - 1 do
    let r =
      if samples = 1 then lo
      else lo + (i * width / (samples - 1))
    in
    let err =
      Float.abs
        (float_of_int (Transform.apply transform r)
        -. Transform.apply_exact transform r)
    in
    if err > !worst then worst := err
  done;
  !worst

(* How many strict tiers sit above the tenant in the operator policy
   (0 for the top tier, and for every tenant under a non-strict root). *)
let strict_depth policy (tenant : Tenant.t) =
  let tiers = Policy.strict_tiers policy in
  let rec find k = function
    | [] -> 0
    | tier :: rest ->
      if List.mem tenant.Tenant.name (Policy.tenant_names tier) then k
      else find (k + 1) rest
  in
  find 0 tiers

let derive ~plan ?(envelopes = []) ?link_rate ?(drop_budget = 0.02) () =
  if drop_budget <= 0. then invalid_arg "Slo.derive: drop_budget <= 0";
  List.map
    (fun (a : Synthesizer.assignment) ->
      let tenant = a.Synthesizer.tenant in
      let delay_bound =
        match link_rate with
        | Some link_rate when envelopes <> [] -> (
          match
            Latency.delay_bound ~plan ~envelopes ~link_rate
              ~tenant_id:tenant.Tenant.id ()
          with
          | Latency.Bounded d -> Some (2. *. d)
          | Latency.Unstable -> None)
        | _ -> None
      in
      (* A tenant below a strict edge is promised nothing by >> while the
         tiers above it burst — starvation there is the policy working,
         not an incident.  Its drop objective is therefore a sanity floor
         (half the offered packets) rather than a service promise. *)
      let drop_budget =
        if strict_depth plan.Synthesizer.policy tenant = 0 then drop_budget
        else Float.max drop_budget 0.5
      in
      {
        tenant;
        delay_bound;
        delay_quantile = 0.99;
        drop_budget;
        rank_error_budget = (1.5 *. measured_rank_error plan tenant) +. 1.;
      })
    plan.Synthesizer.assignments

type audit_config = { window : int; ewma_alpha : float; fast_breach : float }

let default_audit_config = { window = 256; ewma_alpha = 0.2; fast_breach = 4.0 }

type tenant_audit = {
  objective : objective;
  delay : Engine.Telemetry.Histogram.t;
  mutable attempts : int;
  mutable drops : int;
  mutable win_attempts : int;
  mutable win_drops : int;
  mutable windows_closed : int;
  mutable fast_burn : float;
  mutable slow_burn : float;
  mutable max_rank_error : float;
  mutable rank_samples : int;
  mutable tie_inversions : int;
}

type t = {
  config : audit_config;
  (* Dense by tenant id: every hook below sits on the per-packet-hop hot
     path, and an array probe (the option cells are preallocated) keeps
     the audit out of the run's profile in a way a hashtable cannot. *)
  audits : tenant_audit option array;
  ordered : tenant_audit list;  (* tenant-id order, for iteration *)
}

let create ?(config = default_audit_config) ~objectives () =
  if config.window <= 0 then invalid_arg "Slo.create: window <= 0";
  if config.ewma_alpha <= 0. || config.ewma_alpha > 1. then
    invalid_arg "Slo.create: ewma_alpha outside (0, 1]";
  if config.fast_breach < 1. then invalid_arg "Slo.create: fast_breach < 1";
  let audit o =
    {
      objective = o;
      delay = Engine.Telemetry.Histogram.create ();
      attempts = 0;
      drops = 0;
      win_attempts = 0;
      win_drops = 0;
      windows_closed = 0;
      fast_burn = 0.;
      slow_burn = 0.;
      max_rank_error = 0.;
      rank_samples = 0;
      tie_inversions = 0;
    }
  in
  let ordered =
    List.sort
      (fun a b -> compare a.objective.tenant.Tenant.id b.objective.tenant.Tenant.id)
      (List.map audit objectives)
  in
  let max_id =
    List.fold_left
      (fun m s -> Stdlib.max m s.objective.tenant.Tenant.id)
      (-1) ordered
  in
  let audits = Array.make (max_id + 1) None in
  List.iter (fun s -> audits.(s.objective.tenant.Tenant.id) <- Some s) ordered;
  { config; audits; ordered }

let audit t id =
  if id >= 0 && id < Array.length t.audits then Array.unsafe_get t.audits id
  else None

let find t (p : Sched.Packet.t) = audit t p.Sched.Packet.tenant

let close_window t s =
  let rate = float_of_int s.win_drops /. float_of_int (max 1 s.win_attempts) in
  let burn = rate /. s.objective.drop_budget in
  s.fast_burn <- burn;
  s.slow_burn <-
    (if s.windows_closed = 0 then burn
     else
       (t.config.ewma_alpha *. burn)
       +. ((1. -. t.config.ewma_alpha) *. s.slow_burn));
  s.windows_closed <- s.windows_closed + 1;
  s.win_attempts <- 0;
  s.win_drops <- 0

let on_enqueue t p =
  match find t p with
  | None -> ()
  | Some s ->
    s.attempts <- s.attempts + 1;
    s.win_attempts <- s.win_attempts + 1;
    if s.win_attempts >= t.config.window then close_window t s

let on_drop t p =
  match find t p with
  | None -> ()
  | Some s ->
    s.drops <- s.drops + 1;
    s.win_drops <- s.win_drops + 1

let on_delay t ~tenant_id d =
  match audit t tenant_id with
  | None -> ()
  | Some s -> Engine.Telemetry.Histogram.observe s.delay d

let on_rank_error t ~tenant_id e =
  match audit t tenant_id with
  | None -> ()
  | Some s ->
    if e > s.max_rank_error then s.max_rank_error <- e;
    s.rank_samples <- s.rank_samples + 1

let on_tie_inversion t ~tenant_id =
  match audit t tenant_id with
  | None -> ()
  | Some s -> s.tie_inversions <- s.tie_inversions + 1

type status = {
  objective : objective;
  attempts : int;
  drops : int;
  drop_rate : float;
  fast_burn : float;
  slow_burn : float;
  budget_remaining : float;
  observed_delay : float;
  delay_samples : int;
  max_rank_error : float;
  rank_samples : int;
  tie_inversions : int;
}

let status_of (s : tenant_audit) =
  let drop_rate =
    if s.attempts = 0 then 0.
    else float_of_int s.drops /. float_of_int s.attempts
  in
  {
    objective = s.objective;
    attempts = s.attempts;
    drops = s.drops;
    drop_rate;
    fast_burn = s.fast_burn;
    slow_burn = s.slow_burn;
    budget_remaining =
      (if s.attempts = 0 then 1.
       else Float.max 0. (1. -. (drop_rate /. s.objective.drop_budget)));
    observed_delay =
      Engine.Telemetry.Histogram.quantile s.delay s.objective.delay_quantile;
    delay_samples = Engine.Telemetry.Histogram.count s.delay;
    max_rank_error = s.max_rank_error;
    rank_samples = s.rank_samples;
    tie_inversions = s.tie_inversions;
  }

let status t ~tenant_id = Option.map status_of (audit t tenant_id)

let statuses t = List.map status_of t.ordered

let evaluate t ~tenant_id =
  match status t ~tenant_id with
  | None -> (Engine.Health.Pass, "no objective")
  | Some st ->
    let o = st.objective in
    let delay_over =
      st.delay_samples >= 5
      &&
      match o.delay_bound with
      | Some bound -> st.observed_delay > bound
      | None -> false
    in
    if st.budget_remaining <= 0. && st.attempts >= t.config.window then
      ( Engine.Health.Breach,
        Printf.sprintf "drop budget exhausted (%d/%d dropped, budget %.3g)"
          st.drops st.attempts o.drop_budget )
    else if st.fast_burn >= t.config.fast_breach then
      ( Engine.Health.Breach,
        Printf.sprintf "fast burn %.1fx over drop budget" st.fast_burn )
    else if delay_over then
      ( Engine.Health.Breach,
        Printf.sprintf "p%g delay %.3gs over bound %.3gs"
          (100. *. o.delay_quantile)
          st.observed_delay
          (Option.value o.delay_bound ~default:Float.nan) )
    else if st.max_rank_error > o.rank_error_budget then
      ( Engine.Health.Breach,
        Printf.sprintf "rank error %.1f over budget %.1f" st.max_rank_error
          o.rank_error_budget )
    else if st.tie_inversions > 0 then
      ( Engine.Health.Breach,
        Printf.sprintf
          "%d equal-rank FIFO-order inversions (non-conforming scheduler)"
          st.tie_inversions )
    else if st.fast_burn >= 1. then
      ( Engine.Health.Warn,
        Printf.sprintf "fast burn %.1fx of drop budget" st.fast_burn )
    else if st.slow_burn >= 1. then
      ( Engine.Health.Warn,
        Printf.sprintf "slow burn %.1fx of drop budget" st.slow_burn )
    else if st.budget_remaining < 0.25 then
      ( Engine.Health.Warn,
        Printf.sprintf "%.0f%% of drop error budget left"
          (100. *. st.budget_remaining) )
    else (Engine.Health.Pass, "within objectives")

let objectives t = List.map (fun (s : tenant_audit) -> s.objective) t.ordered

let pp_objective ppf o =
  Format.fprintf ppf
    "%-10s p%g delay %s  drop budget %.3g  rank-error budget %.1f"
    o.tenant.Tenant.name
    (100. *. o.delay_quantile)
    (match o.delay_bound with
    | Some d -> Printf.sprintf "<= %.4gs" d
    | None -> "unbounded")
    o.drop_budget o.rank_error_budget

let pp_status ppf st =
  Format.fprintf ppf
    "delay p%g %.4gs  drops %d/%d  fast %.2fx slow %.2fx  budget %.0f%%  \
     rank err %.1f  ties %d"
    (100. *. st.objective.delay_quantile)
    st.observed_delay st.drops st.attempts st.fast_burn st.slow_burn
    (100. *. st.budget_remaining)
    st.max_rank_error st.tie_inversions
