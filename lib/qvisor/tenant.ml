type t = {
  id : int;
  name : string;
  algorithm : string;
  rank_lo : int;
  rank_hi : int;
  weight : float;
}

let make ?(algorithm = "custom") ?(rank_lo = 0) ?(rank_hi = 65535)
    ?(weight = 1.0) ~id ~name () =
  if id < 0 then invalid_arg "Tenant.make: negative id";
  if name = "" then invalid_arg "Tenant.make: empty name";
  if rank_lo > rank_hi then invalid_arg "Tenant.make: rank_lo > rank_hi";
  if weight <= 0. then invalid_arg "Tenant.make: weight <= 0";
  { id; name; algorithm; rank_lo; rank_hi; weight }

let range_width t = t.rank_hi - t.rank_lo + 1

let pp ppf t =
  Format.fprintf ppf "%s(id=%d %s ranks=[%d,%d] w=%g)" t.name t.id t.algorithm
    t.rank_lo t.rank_hi t.weight
