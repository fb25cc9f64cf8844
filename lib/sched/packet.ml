type kind = Data | Ack

type t = {
  uid : int;
  kind : kind;
  flow : int;
  tenant : int;
  src : int;
  dst : int;
  size : int;
  seq : int;
  payload : int;
  remaining : int;
  deadline : float;
  created_at : float;
  mutable label : int;
  mutable rank : int;
  mutable enqueued_at : float;
}

let header_bytes = 58

(* Domain-local, not a shared global: [uid] names a packet within its
   simulation (traces, flight dumps, drop identity), and a simulation
   runs entirely on one domain — so per-domain counters keep uids
   deterministic when independent simulations run on parallel worker
   domains (a shared counter would interleave differently on every
   run). *)
let uid_counter = Domain.DLS.new_key (fun () -> ref 0)

let reset_uid_counter start = Domain.DLS.get uid_counter := start

let make ?(kind = Data) ?(tenant = 0) ?(src = 0) ?(dst = 0) ?(seq = 0) ?payload
    ?remaining ?(deadline = infinity) ?(created_at = 0.) ?(rank = 0) ~flow
    ~size () =
  let payload =
    match payload with Some p -> p | None -> max 0 (size - header_bytes)
  in
  let remaining = match remaining with Some r -> r | None -> payload in
  let counter = Domain.DLS.get uid_counter in
  incr counter;
  {
    uid = !counter;
    kind;
    flow;
    tenant;
    src;
    dst;
    size;
    seq;
    payload;
    remaining;
    deadline;
    created_at;
    label = rank;
    rank;
    enqueued_at = created_at;
  }
