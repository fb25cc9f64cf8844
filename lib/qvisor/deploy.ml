type backend =
  | Ideal_pifo of { capacity_pkts : int }
  | Sp_bank of { num_queues : int; queue_capacity_pkts : int }
  | Sp_pifo of { num_queues : int; queue_capacity_pkts : int }
  | Aifo of { capacity_pkts : int; window : int; k : float }
  | Drr_bank of {
      num_queues : int;
      queue_capacity_pkts : int;
      quantum_bytes : int;
    }
  | Calendar of { num_buckets : int; bucket_width : int; capacity_pkts : int }

type guarantee_level = Exact | Tiered of int | Approximate

(* The transformed rank span of each top-level strict tier, in priority
   order. *)
let tier_spans (plan : Synthesizer.plan) =
  let band_of_name name =
    let a =
      List.find
        (fun a -> a.Synthesizer.tenant.Tenant.name = name)
        plan.Synthesizer.assignments
    in
    a.Synthesizer.band
  in
  Policy.strict_tiers plan.Synthesizer.policy
  |> List.map (fun tier ->
         let bands = List.map band_of_name (Policy.tenant_names tier) in
         let lo =
           List.fold_left (fun acc b -> min acc b.Synthesizer.lo) max_int bands
         in
         let hi =
           List.fold_left (fun acc b -> max acc b.Synthesizer.hi) min_int bands
         in
         (lo, hi))
  |> List.sort compare

let queue_bounds ~(plan : Synthesizer.plan) ~spans ~n_tiers ~num_queues =
  let widths = List.map (fun (lo, hi) -> hi - lo + 1) spans in
  let total_width = List.fold_left ( + ) 0 widths in
  (* Every tier gets one queue; extras go proportionally to width, with the
     remainder biased to the widest tiers. *)
  let extra = num_queues - n_tiers in
  let base_extra =
    List.map (fun w -> extra * w / max 1 total_width) widths
  in
  let remainder = extra - List.fold_left ( + ) 0 base_extra in
  let indexed = List.mapi (fun i w -> (i, w)) widths in
  let by_width =
    List.sort (fun (_, w1) (_, w2) -> compare w2 w1) indexed |> List.map fst
  in
  let bonus = Array.make n_tiers 0 in
  List.iteri (fun pos i -> if pos < remainder then bonus.(i) <- 1) by_width;
  let queues_per_tier =
    List.mapi (fun i be -> 1 + be + bonus.(i)) base_extra
  in
  let bounds = ref [] in
  List.iteri
    (fun i (lo, hi) ->
      let q = List.nth queues_per_tier i in
      let width = hi - lo + 1 in
      for j = 1 to q do
        let bound =
          if i = n_tiers - 1 && j = q then plan.Synthesizer.rank_hi
          else lo + (j * width / q) - 1
        in
        bounds := bound :: !bounds
      done)
    spans;
  Array.of_list (List.rev !bounds)

let queue_bounds_of_plan ~(plan : Synthesizer.plan) ~num_queues =
  let spans = tier_spans plan in
  let n_tiers = List.length spans in
  if num_queues < n_tiers then
    Error (Error.Deploy "fewer queues than strict tiers")
  else Ok (queue_bounds ~plan ~spans ~n_tiers ~num_queues)

let instantiate ~(plan : Synthesizer.plan) backend =
  let ( let* ) = Result.bind in
  match backend with
  | Ideal_pifo { capacity_pkts } ->
    (* Bucket_queue is the exact backend: PIFO semantics with ties in
       port-arrival order, from a min-max heap of O(log n) operations.
       The plan's transformed rank space is bounded by [rank_hi], so no
       rank the synthesizer emits is clamped. *)
    Ok
      (Sched.Bucket_queue.create ~name:"qvisor-pifo"
         ~rank_max:plan.Synthesizer.rank_hi ~capacity_pkts ())
  | Sp_bank { num_queues; queue_capacity_pkts } ->
    let* bounds = queue_bounds_of_plan ~plan ~num_queues in
    Ok
      (Sched.Sp_bank.create ~name:"qvisor-sp-bank" ~num_queues
         ~queue_capacity_pkts
         ~classify:(fun p ->
           Sched.Sp_bank.queue_of_rank ~bounds p.Sched.Packet.rank)
         ())
  | Sp_pifo { num_queues; queue_capacity_pkts } ->
    Ok
      (Sched.Sp_pifo.create ~name:"qvisor-sp-pifo" ~num_queues
         ~queue_capacity_pkts ())
  | Aifo { capacity_pkts; window; k } ->
    Ok (Sched.Aifo.create ~name:"qvisor-aifo" ~window ~k ~capacity_pkts ())
  | Drr_bank { num_queues; queue_capacity_pkts; quantum_bytes } ->
    let* bounds = queue_bounds_of_plan ~plan ~num_queues in
    Ok
      (Sched.Drr_bank.create ~name:"qvisor-drr" ~num_queues
         ~queue_capacity_pkts ~quantum_bytes
         ~classify:(fun p ->
           Sched.Sp_bank.queue_of_rank ~bounds p.Sched.Packet.rank)
         ())
  | Calendar { num_buckets; bucket_width; capacity_pkts } ->
    Ok
      (Sched.Calendar_queue.create ~name:"qvisor-calendar" ~num_buckets
         ~bucket_width ~capacity_pkts ())

let instantiate_exn ~plan backend =
  match instantiate ~plan backend with
  | Ok q -> q
  | Error e -> invalid_arg ("Deploy.instantiate: " ^ Error.to_string e)

let guarantees ~plan backend =
  match backend with
  | Ideal_pifo _ -> Exact
  | Sp_bank { num_queues; _ } ->
    let n_tiers = List.length (tier_spans plan) in
    Tiered (num_queues - n_tiers + 1)
  | Sp_pifo _ | Aifo _ | Drr_bank _ | Calendar _ -> Approximate

let pifo_tree_of_policy ~tenants ~policy ~capacity_pkts () =
  let known = List.map (fun t -> t.Tenant.name) tenants in
  match Policy.validate policy ~known with
  | Error e -> Error e
  | Ok () ->
    (* Leaves come out in the policy's left-to-right tenant order, which
       matches the depth-first numbering [Pifo_tree.to_qdisc] uses. *)
    let weight_of name =
      (List.find (fun t -> t.Tenant.name = name) tenants).Tenant.weight
    in
    let rec build node =
      match node with
      | Policy.Tenant _ -> Sched.Pifo_tree.leaf ()
      | Policy.Strict tiers -> Sched.Pifo_tree.strict (List.map build tiers)
      | Policy.Share members ->
        Sched.Pifo_tree.wfq
          (List.map
             (fun m ->
               let w =
                 match m with
                 | Policy.Tenant name -> weight_of name
                 | Policy.Share _ | Policy.Prefer _ | Policy.Strict _ -> 1.0
               in
               (build m, w))
             members)
      | Policy.Prefer groups ->
        Sched.Pifo_tree.wfq
          (List.mapi (fun i g -> (build g, 0.25 ** float_of_int i)) groups)
    in
    let tree = build policy in
    let names = Policy.tenant_names policy in
    let leaf_of_tenant = Hashtbl.create 8 in
    List.iteri
      (fun leaf_index name ->
        let tenant = List.find (fun t -> t.Tenant.name = name) tenants in
        Hashtbl.replace leaf_of_tenant tenant.Tenant.id leaf_index)
      names;
    let last_leaf = List.length names - 1 in
    let classify (p : Sched.Packet.t) =
      match Hashtbl.find_opt leaf_of_tenant p.Sched.Packet.tenant with
      | Some leaf -> leaf
      | None -> last_leaf
    in
    Ok
      (Sched.Pifo_tree.to_qdisc ~name:"qvisor-pifo-tree" ~classify
         ~capacity_pkts tree)

let describe = function
  | Ideal_pifo { capacity_pkts } ->
    Printf.sprintf "ideal PIFO (capacity %d pkts)" capacity_pkts
  | Sp_bank { num_queues; queue_capacity_pkts } ->
    Printf.sprintf "strict-priority bank (%d queues x %d pkts, static bounds)"
      num_queues queue_capacity_pkts
  | Sp_pifo { num_queues; queue_capacity_pkts } ->
    Printf.sprintf "SP-PIFO (%d queues x %d pkts, adaptive bounds)" num_queues
      queue_capacity_pkts
  | Aifo { capacity_pkts; window; k } ->
    Printf.sprintf "AIFO (single queue %d pkts, window %d, k=%.2f)"
      capacity_pkts window k
  | Drr_bank { num_queues; queue_capacity_pkts; quantum_bytes } ->
    Printf.sprintf "DRR bank (%d queues x %d pkts, quantum %d B)" num_queues
      queue_capacity_pkts quantum_bytes
  | Calendar { num_buckets; bucket_width; capacity_pkts } ->
    Printf.sprintf "calendar queue (%d buckets x width %d, %d pkts)"
      num_buckets bucket_width capacity_pkts
