type t = {
  sim : Engine.Sim.t;
  telemetry : Engine.Telemetry.t;
  health : Engine.Health.t;
  guard : Guard.t option;
  derive : Synthesizer.plan -> Slo.t;
  mutable tenants : Tenant.t list;
  mutable slo : Slo.t;
  (* tenant id -> (drops, attempts) when the previous drop spike fired *)
  at_last_spike : (int, int * int) Hashtbl.t;
  (* tenant id -> (detail, budget overrun) of the worst spike since the
     last [observe] *)
  pending : (int, string * float) Hashtbl.t;
}

let plan_tenants (plan : Synthesizer.plan) =
  List.map (fun a -> a.Synthesizer.tenant) plan.Synthesizer.assignments

let watch_plan t plan =
  let tenants = plan_tenants plan in
  let ids = List.map (fun (tn : Tenant.t) -> tn.Tenant.id) tenants in
  let watched =
    List.map (fun (id, _, _) -> id) (Engine.Health.states t.health)
  in
  List.iter
    (fun id -> if not (List.mem id ids) then Engine.Health.unwatch t.health ~id)
    watched;
  List.iter
    (fun (tn : Tenant.t) ->
      if not (List.mem tn.Tenant.id watched) then
        Engine.Health.watch t.health ~id:tn.Tenant.id ~name:tn.Tenant.name)
    tenants;
  t.tenants <- tenants

let create ~sim ~telemetry ~health ~guard ~capacity_pkts ~link_rate ~rho plan =
  let sigma = float_of_int (capacity_pkts * 1518) in
  let derive plan =
    let envelope (tn : Tenant.t) =
      (tn.Tenant.id, Latency.envelope ~sigma ~rho:(rho tn))
    in
    let envelopes = List.map envelope (plan_tenants plan) in
    Slo.create ~objectives:(Slo.derive ~plan ~envelopes ~link_rate ()) ()
  in
  let tenants = plan_tenants plan in
  let guard =
    if guard then Some (Guard.create ~telemetry ~tenants ()) else None
  in
  let t =
    {
      sim;
      telemetry;
      health;
      guard;
      derive;
      tenants = [];
      slo = derive plan;
      at_last_spike = Hashtbl.create 4;
      pending = Hashtbl.create 4;
    }
  in
  watch_plan t plan;
  t

let slo t = t.slo

let health t = t.health

let rederive t plan =
  t.slo <- t.derive plan;
  (* The new auditor counts from zero. *)
  Hashtbl.reset t.at_last_spike;
  watch_plan t plan

let on_enqueue t p = Slo.on_enqueue t.slo p

let on_dequeue t (p : Sched.Packet.t) =
  Slo.on_delay t.slo ~tenant_id:p.Sched.Packet.tenant
    (Engine.Sim.now t.sim -. p.Sched.Packet.enqueued_at)

let on_drop t p = Slo.on_drop t.slo p

let on_tie_inversion t (p : Sched.Packet.t) =
  Slo.on_tie_inversion t.slo ~tenant_id:p.Sched.Packet.tenant

let on_rank_error t tenant_id e = Slo.on_rank_error t.slo ~tenant_id e

let preprocess t pre =
  match t.guard with
  | None -> Preprocessor.process pre
  | Some g -> Guard.process g pre

let on_drop_spike t ~link_id =
  let worst = ref (-1, 0, 0.) in
  List.iter
    (fun (st : Slo.status) ->
      let id = st.Slo.objective.Slo.tenant.Tenant.id in
      let pd, pa =
        Option.value (Hashtbl.find_opt t.at_last_spike id) ~default:(0, 0)
      in
      let ddrops = st.Slo.drops - pd in
      let dattempts = st.Slo.attempts - pa in
      Hashtbl.replace t.at_last_spike id (st.Slo.drops, st.Slo.attempts);
      let rate = float_of_int ddrops /. float_of_int (max 1 dattempts) in
      let over = rate /. st.Slo.objective.Slo.drop_budget in
      let _, _, worst_over = !worst in
      if ddrops > 0 && over > worst_over then worst := (id, ddrops, over))
    (Slo.statuses t.slo);
  let id, ddrops, over = !worst in
  let worse =
    match Hashtbl.find_opt t.pending id with
    | Some (_, prev_over) -> over > prev_over
    | None -> true
  in
  if over > 1. && worse then
    Hashtbl.replace t.pending id
      ( Printf.sprintf
          "port %d drop spike (+%d tenant drops, %.1fx over budget)" link_id
          ddrops over,
        over )

let observe t (tn : Tenant.t) =
  let id = tn.Tenant.id and time = Engine.Sim.now t.sim in
  let observe ~source ~detail signal =
    Engine.Health.observe t.health ~id ~time ~source ~detail signal
  in
  let signal, detail = Slo.evaluate t.slo ~tenant_id:id in
  observe ~source:"slo" ~detail signal;
  (match Option.map (fun g -> Guard.verdict g ~tenant_id:id) t.guard with
  | Some (Guard.Malicious _) ->
    observe ~source:"guard" ~detail:"guard verdict: malicious"
      Engine.Health.Breach
  | Some (Guard.Suspicious _) ->
    observe ~source:"guard" ~detail:"guard verdict: suspicious"
      Engine.Health.Warn
  | Some Guard.Conforming | None -> ());
  match Hashtbl.find_opt t.pending id with
  | Some (detail, _) ->
    Hashtbl.remove t.pending id;
    observe ~source:"recorder" ~detail Engine.Health.Warn
  | None -> ()

let health_severity = function
  | Engine.Health.Healthy -> 0.
  | Engine.Health.Degraded -> 1.
  | Engine.Health.Violating -> 2.

let mirror t (tn : Tenant.t) =
  if Engine.Telemetry.is_enabled t.telemetry then begin
    let id = tn.Tenant.id in
    let set name v =
      Engine.Telemetry.Gauge.set (Engine.Telemetry.gauge t.telemetry name) v
    in
    Option.iter
      (fun (st : Slo.status) ->
        let slo name = set (Printf.sprintf "slo.tenant.%d.%s" id name) in
        slo "fast_burn" st.Slo.fast_burn;
        slo "slow_burn" st.Slo.slow_burn;
        slo "budget_remaining" st.Slo.budget_remaining;
        slo "delay_quantile_seconds" st.Slo.observed_delay)
      (Slo.status t.slo ~tenant_id:id);
    set
      (Printf.sprintf "health.tenant.%d.state" id)
      (health_severity (Engine.Health.state t.health ~id))
  end

let evaluate t =
  List.iter
    (fun tn ->
      observe t tn;
      mirror t tn)
    t.tenants
