type t = {
  id : int;
  name : string;
  algorithm : string;
  rank_lo : int;
  rank_hi : int;
  weight : float;
}

(* Ids index dense per-tenant tables (pre-processor, SLO auditor, guard,
   runtime, fabric telemetry) sized to the largest id plus one. *)
let max_id = 65_535

let make ?(algorithm = "custom") ?(rank_lo = 0) ?(rank_hi = 65535)
    ?(weight = 1.0) ~id ~name () =
  if id < 0 then invalid_arg "Tenant.make: negative id";
  if id > max_id then invalid_arg "Tenant.make: id above 65535";
  if name = "" then invalid_arg "Tenant.make: empty name";
  if rank_lo > rank_hi then invalid_arg "Tenant.make: rank_lo > rank_hi";
  if weight <= 0. then invalid_arg "Tenant.make: weight <= 0";
  { id; name; algorithm; rank_lo; rank_hi; weight }

let range_width t = t.rank_hi - t.rank_lo + 1
