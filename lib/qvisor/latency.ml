type envelope = { sigma : float; rho : float }

let envelope ~sigma ~rho =
  if sigma < 0. then invalid_arg "Latency.envelope: negative burst";
  if rho <= 0. then invalid_arg "Latency.envelope: non-positive rate";
  { sigma; rho }

type bound = Bounded of float | Unstable

let tier_of_tenant (plan : Synthesizer.plan) ~tenant_id =
  let tiers = Policy.strict_tiers plan.Synthesizer.policy in
  let name =
    match
      List.find_opt
        (fun a -> a.Synthesizer.tenant.Tenant.id = tenant_id)
        plan.Synthesizer.assignments
    with
    | Some a -> a.Synthesizer.tenant.Tenant.name
    | None -> invalid_arg "Latency.tier_of_tenant: unknown tenant"
  in
  let rec find k = function
    | [] -> invalid_arg "Latency.tier_of_tenant: tenant not in any tier"
    | tier :: rest ->
      if List.mem name (Policy.tenant_names tier) then k else find (k + 1) rest
  in
  find 0 tiers

(* Pool the envelopes of every tenant in tiers [0..k]. *)
let pooled_envelopes (plan : Synthesizer.plan) ~envelopes ~upto_tier =
  let tiers = Policy.strict_tiers plan.Synthesizer.policy in
  let tenants_by_name =
    List.map
      (fun a -> (a.Synthesizer.tenant.Tenant.name, a.Synthesizer.tenant))
      plan.Synthesizer.assignments
  in
  let sigma_total = ref 0. in
  let rho_same_or_higher = ref 0. in
  let rho_strictly_higher = ref 0. in
  List.iteri
    (fun k tier ->
      if k <= upto_tier then
        List.iter
          (fun name ->
            match List.assoc_opt name tenants_by_name with
            | None -> ()
            | Some tenant -> (
              match List.assoc_opt tenant.Tenant.id envelopes with
              | None -> ()
              | Some e ->
                sigma_total := !sigma_total +. e.sigma;
                rho_same_or_higher := !rho_same_or_higher +. e.rho;
                if k < upto_tier then
                  rho_strictly_higher := !rho_strictly_higher +. e.rho))
          (Policy.tenant_names tier))
    tiers;
  (!sigma_total, !rho_strictly_higher, !rho_same_or_higher)

(* A full Ethernet frame: the non-preemption term of every bound. *)
let mtu_bytes = 1518

let delay_bound ~plan ~envelopes ~link_rate ~tenant_id () =
  if link_rate <= 0. then invalid_arg "Latency.delay_bound: link_rate <= 0";
  let tier = tier_of_tenant plan ~tenant_id in
  let capacity_bytes = link_rate /. 8. in
  let sigma, rho_higher, rho_incl =
    pooled_envelopes plan ~envelopes ~upto_tier:tier
  in
  (* Stability needs the tenant's own tier (plus everything above) to fit
     within the link; the service left after higher tiers is what drains
     this tier's pooled burst. *)
  if rho_incl >= capacity_bytes then Unstable
  else begin
    let residual = capacity_bytes -. rho_higher in
    Bounded ((sigma +. float_of_int mtu_bytes) /. residual)
  end

let report ~plan ~envelopes ~link_rate () =
  plan.Synthesizer.assignments
  |> List.map (fun a ->
         let tenant = a.Synthesizer.tenant in
         ( tenant,
           delay_bound ~plan ~envelopes ~link_rate ~tenant_id:tenant.Tenant.id
             () ))

let pp_bound ppf = function
  | Bounded d -> Format.fprintf ppf "%.3f ms" (1e3 *. d)
  | Unstable -> Format.pp_print_string ppf "unstable (over-subscribed)"
