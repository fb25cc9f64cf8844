(* Raw rank range a tenant has emitted since the last [refresh]. *)
type observation = { mutable min_rank : int; mutable max_rank : int }

type t = {
  mutable config : Synthesizer.config;
  mutable tenants : Tenant.t list;
  mutable policy : Policy.t;
  pre : Preprocessor.t;
  (* Dense by tenant id, like the pre-processor's counts: [observe] runs
     on every hop.  Negative ids fall back to the side table. *)
  mutable observed : observation option array;
  observed_neg : (int, observation) Hashtbl.t;
  mutable resyntheses : int;
  resynthesis_count : Engine.Telemetry.Counter.t;
}

let synthesize_now config tenants policy =
  Synthesizer.synthesize ~config ~tenants ~policy ()

let create ?(config = Synthesizer.default_config)
    ?(telemetry = Engine.Telemetry.disabled) ~tenants ~policy () =
  match synthesize_now config tenants policy with
  | Error e -> Error e
  | Ok plan ->
    Ok
      {
        config;
        tenants;
        policy;
        pre = Preprocessor.of_plan ~telemetry plan;
        observed = Array.make 16 None;
        observed_neg = Hashtbl.create 1;
        resyntheses = 0;
        resynthesis_count =
          Engine.Telemetry.counter telemetry "runtime.resyntheses";
      }

let create_exn ~tenants ~policy () =
  match create ~tenants ~policy () with
  | Ok t -> t
  | Error e -> invalid_arg ("Runtime.create: " ^ Error.to_string e)

let observation t id =
  if id >= 0 && id < Array.length t.observed then Array.unsafe_get t.observed id
  else if id < 0 then Hashtbl.find_opt t.observed_neg id
  else None

let observe t (p : Sched.Packet.t) =
  let id = p.Sched.Packet.tenant and r = p.Sched.Packet.label in
  match observation t id with
  | Some o ->
    if r < o.min_rank then o.min_rank <- r;
    if r > o.max_rank then o.max_rank <- r
  | None ->
    let o = { min_rank = r; max_rank = r } in
    if id < 0 then Hashtbl.replace t.observed_neg id o
    else begin
      let n = Array.length t.observed in
      if id >= n then begin
        let grown = Array.make (max (2 * n) (id + 1)) None in
        Array.blit t.observed 0 grown 0 n;
        t.observed <- grown
      end;
      t.observed.(id) <- Some o
    end

let process t p =
  observe t p;
  Preprocessor.process t.pre p

let plan t = Preprocessor.plan t.pre

let resyntheses t = t.resyntheses

let observed_range t ~tenant_id =
  Option.map (fun o -> (o.min_rank, o.max_rank)) (observation t tenant_id)

let forget t ~tenant_id =
  if tenant_id >= 0 && tenant_id < Array.length t.observed then
    t.observed.(tenant_id) <- None
  else if tenant_id < 0 then Hashtbl.remove t.observed_neg tenant_id

let redeploy t tenants policy =
  match synthesize_now t.config tenants policy with
  | Error e -> Error e
  | Ok plan ->
    t.tenants <- tenants;
    t.policy <- policy;
    Preprocessor.swap_plan t.pre plan;
    t.resyntheses <- t.resyntheses + 1;
    Engine.Telemetry.Counter.incr t.resynthesis_count;
    Ok ()

let add_tenant t tenant ?policy () =
  if List.exists (fun x -> x.Tenant.id = tenant.Tenant.id) t.tenants then
    Error
      (Error.Config
         (Printf.sprintf "tenant id %d already present" tenant.Tenant.id))
  else begin
    let policy = Option.value policy ~default:t.policy in
    redeploy t (t.tenants @ [ tenant ]) policy
  end

let remove_tenant t ~tenant_id ?policy () =
  if not (List.exists (fun x -> x.Tenant.id = tenant_id) t.tenants) then
    Error (Error.Unknown_tenant (Printf.sprintf "id %d" tenant_id))
  else begin
    let tenants = List.filter (fun x -> x.Tenant.id <> tenant_id) t.tenants in
    let policy = Option.value policy ~default:t.policy in
    match redeploy t tenants policy with
    | Error _ as e -> e
    | Ok () ->
      forget t ~tenant_id;
      Ok ()
  end

let tenants t = t.tenants

let policy t = t.policy

let update_policy t policy = redeploy t t.tenants policy

let config t = t.config

let coarsen t ~levels =
  if levels < 2 then
    Error (Error.Config (Printf.sprintf "coarsen: levels %d < 2" levels))
  else begin
    let old = t.config in
    t.config <- { t.config with Synthesizer.levels = Some levels };
    match redeploy t t.tenants t.policy with
    | Ok () -> Ok ()
    | Error _ as e ->
      t.config <- old;
      e
  end

let refresh t =
  let tenants =
    List.map
      (fun tenant ->
        match observed_range t ~tenant_id:tenant.Tenant.id with
        | Some (lo, hi) -> { tenant with Tenant.rank_lo = lo; rank_hi = hi }
        | None -> tenant)
      t.tenants
  in
  match redeploy t tenants t.policy with
  | Error _ as e -> e
  | Ok () ->
    Array.fill t.observed 0 (Array.length t.observed) None;
    Hashtbl.reset t.observed_neg;
    Ok ()
