type reason = Out_of_range of float | Top_band_flooding of float

type verdict = Conforming | Suspicious of reason list | Malicious of reason list

type config = {
  window : int;
  out_of_range_threshold : float;
  flooding_threshold : float;
  flooding_exempt : string list;
}

let default_config =
  {
    window = 256;
    out_of_range_threshold = 0.05;
    flooding_threshold = 0.5;
    flooding_exempt = [ "pfabric"; "srpt"; "edf"; "lstf" ];
  }

type tenant_state = {
  spec : Tenant.t;
  mutable in_window : int; (* packets *)
  mutable window_bytes : int;
  mutable out_of_range : int; (* bytes *)
  mutable top_band : int; (* bytes *)
  mutable strikes : int;
  mutable last_reasons : reason list;
  (* The verdict's mitigation transform, recomputed only when a window
     closes — [process] sits on the per-packet hot path and must not
     rebuild (or even re-decide) it per packet. *)
  mutable conditioning : Transform.t;
}

(* Verdict-transition instruments: counters tick when a tenant *enters*
   Suspicious or Malicious (not on every dirty window). *)
type instruments = {
  suspicious : Engine.Telemetry.Counter.t;
  malicious : Engine.Telemetry.Counter.t;
}

type t = {
  config : config;
  (* Dense by tenant id, fixed at [create] — [process] runs per packet
     per hop, and an array probe into preallocated option cells is
     allocation-free. *)
  states : tenant_state option array;
  ins : instruments option;
}

let fresh_state spec =
  {
    spec;
    in_window = 0;
    window_bytes = 0;
    out_of_range = 0;
    top_band = 0;
    strikes = 0;
    last_reasons = [];
    conditioning = Transform.Identity;
  }

let create ?(config = default_config) ?telemetry ?clock:_ ~tenants () =
  if config.window <= 0 then invalid_arg "Guard.create: window <= 0";
  let max_id =
    List.fold_left (fun m spec -> Stdlib.max m spec.Tenant.id) (-1) tenants
  in
  let states = Array.make (max_id + 1) None in
  List.iter
    (fun spec -> states.(spec.Tenant.id) <- Some (fresh_state spec))
    tenants;
  let ins =
    match telemetry with
    | Some tel when Engine.Telemetry.is_enabled tel ->
      Some
        {
          suspicious = Engine.Telemetry.counter tel "guard.suspicious";
          malicious = Engine.Telemetry.counter tel "guard.malicious";
        }
    | Some _ | None -> None
  in
  { config; states; ins }

let state t id =
  if id >= 0 && id < Array.length t.states then Array.unsafe_get t.states id
  else None

(* The "best decile": the lowest tenth of the tenant's declared range —
   the ranks that always win within the tenant's own band. *)
let top_band_cutoff spec =
  spec.Tenant.rank_lo + (max 1 (Tenant.range_width spec / 10)) - 1

let close_window t s =
  (* Fractions are byte-weighted so that small control packets (acks ride
     at the tenant's best rank by design) cannot trip the detectors. *)
  let n = float_of_int (max 1 s.window_bytes) in
  let oor = float_of_int s.out_of_range /. n in
  let flood = float_of_int s.top_band /. n in
  let flooding_applies =
    not (List.mem s.spec.Tenant.algorithm t.config.flooding_exempt)
  in
  let reasons =
    (if oor > t.config.out_of_range_threshold then [ Out_of_range oor ] else [])
    @
    if flooding_applies && flood > t.config.flooding_threshold then
      [ Top_band_flooding flood ]
    else []
  in
  let level strikes = if strikes >= 3 then 2 else if strikes >= 1 then 1 else 0 in
  let before = level s.strikes in
  (match reasons with
  | [] -> s.strikes <- max 0 (s.strikes - 1)
  | _ :: _ -> s.strikes <- s.strikes + 1);
  let after = level s.strikes in
  (match t.ins with
  | Some ins when after > before ->
    Engine.Telemetry.Counter.incr
      (if after = 2 then ins.malicious else ins.suspicious)
  | Some _ | None -> ());
  s.last_reasons <- reasons;
  s.in_window <- 0;
  s.window_bytes <- 0;
  s.out_of_range <- 0;
  s.top_band <- 0;
  let lo = s.spec.Tenant.rank_lo and hi = s.spec.Tenant.rank_hi in
  s.conditioning <-
    (if s.strikes >= 3 then
       (* Stop the attack: everything this tenant sends competes at its
          own worst declared rank. *)
       Transform.normalize ~src:(lo, hi) ~dst:(hi, hi) ~levels:1 ()
     else if s.strikes >= 1 then
       (* Clamp escapes back into the declared range. *)
       Transform.normalize ~src:(lo, hi) ~dst:(lo, hi) ()
     else Transform.Identity)

let observe_state t s (p : Sched.Packet.t) =
  let r = p.Sched.Packet.label in
  let size = p.Sched.Packet.size in
  s.in_window <- s.in_window + 1;
  s.window_bytes <- s.window_bytes + size;
  if r < s.spec.Tenant.rank_lo || r > s.spec.Tenant.rank_hi then
    s.out_of_range <- s.out_of_range + size
  else if r <= top_band_cutoff s.spec then s.top_band <- s.top_band + size;
  if s.in_window >= t.config.window then close_window t s

let observe t (p : Sched.Packet.t) =
  match state t p.Sched.Packet.tenant with
  | None -> () (* undeclared tenants are already parked by the fallback *)
  | Some s -> observe_state t s p

let verdict t ~tenant_id =
  match state t tenant_id with
  | None -> Conforming
  | Some s ->
    if s.strikes >= 3 then Malicious s.last_reasons
    else if s.strikes >= 1 then Suspicious s.last_reasons
    else Conforming

let mitigation t ~tenant_id =
  match state t tenant_id with
  | None -> Transform.Identity
  | Some s -> s.conditioning

let process t pre (p : Sched.Packet.t) =
  match state t p.Sched.Packet.tenant with
  | None ->
    (* Undeclared tenants are already parked by the fallback. *)
    Preprocessor.process pre p
  | Some s ->
    observe_state t s p;
    Preprocessor.process_conditioned pre ~conditioning:s.conditioning p

let strikes t ~tenant_id =
  match state t tenant_id with
  | None -> 0
  | Some s -> s.strikes
