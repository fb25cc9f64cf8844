type resources = { num_queues : int; queue_capacity_pkts : int }

type proposal = {
  original : Policy.t;
  relaxed : Policy.t;
  demotions : (string * string) list;
  plan : Synthesizer.plan;
  bounds : int array;
  exact_fit : bool;
}

let required_queues policy = List.length (Policy.strict_tiers policy)

(* Demote the lowest-priority [>>] into [>]: merge the last two strict
   tiers into one Prefer tier.  Lowest priority first because a demotion
   there perturbs the fewest worst-case guarantees (everything above keeps
   its isolation). *)
let demote_last policy =
  match policy with
  | Policy.Strict tiers when List.length tiers >= 2 ->
    let rec split_last_two acc = function
      | [ a; b ] -> (List.rev acc, a, b)
      | x :: rest -> split_last_two (x :: acc) rest
      | [] -> assert false
    in
    let front, a, b = split_last_two [] tiers in
    let flatten = function Policy.Prefer l -> l | other -> [ other ] in
    let merged = Policy.Prefer (flatten a @ flatten b) in
    let relaxed =
      match front with
      | [] -> merged
      | _ -> Policy.Strict (front @ [ merged ])
    in
    Some (relaxed, (Policy.to_string a, Policy.to_string b))
  | Policy.Strict _ | Policy.Tenant _ | Policy.Share _ | Policy.Prefer _ ->
    None

let fit ~tenants ~policy ~resources () =
  if resources.num_queues <= 0 then Error (Error.Config "num_queues <= 0")
  else begin
    let rec search current demotions =
      if required_queues current <= resources.num_queues then begin
        match Synthesizer.synthesize ~tenants ~policy:current () with
        | Error e -> Error e
        | Ok plan -> (
          match
            Deploy.queue_bounds_of_plan ~plan ~num_queues:resources.num_queues
          with
          | Error e -> Error e
          | Ok bounds ->
            Ok
              {
                original = policy;
                relaxed = current;
                demotions = List.rev demotions;
                plan;
                bounds;
                exact_fit = demotions = [];
              })
      end
      else begin
        match demote_last current with
        | Some (relaxed, demotion) -> search relaxed (demotion :: demotions)
        | None -> Error (Error.Deploy "policy cannot be relaxed further")
      end
    in
    search policy []
  end

let pp_proposal ppf p =
  Format.fprintf ppf "@[<v>original: %a@,deployable: %a%s" Policy.pp p.original
    Policy.pp p.relaxed
    (if p.exact_fit then "  (exact fit)" else "");
  List.iter
    (fun (a, b) ->
      Format.fprintf ppf "@,gave up: (%s) >> (%s) weakened to best-effort" a b)
    p.demotions;
  Format.fprintf ppf "@,queues: %d (bounds:" (Array.length p.bounds);
  Array.iter (fun b -> Format.fprintf ppf " %d" b) p.bounds;
  Format.fprintf ppf ")@]"
