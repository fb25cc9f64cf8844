type flow_result = {
  flow_id : int;
  tenant : int;
  size : int;
  started_at : float;
  completed_at : float;
}

let fct r = r.completed_at -. r.started_at

type cbr_stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable deadline_met : int;
  delay : Engine.Stats.t;
}

type wflow = {
  id : int;
  tenant : int;
  src : int;
  dst : int;
  size : int;
  ranker : Sched.Ranker.t;
  window : int;
  rto : float;
  mtu : int;
  deadline : float;
  started_at : float;
  on_complete : flow_result -> unit;
  mutable next_offset : int;
  mutable acked_bytes : int;
  (* Per-segment state, indexed by [seq / mtu] — a flow's seqs are the
     dense MTU multiples [0, mtu, 2*mtu, ...], so flat arrays replace
     the sets and hash tables a sparse seq space would need.  Every
     per-packet update is then an O(1) store with no allocation and no
     write barrier ([sent_at] is an unboxed float array; nan = not
     outstanding). *)
  acked : Bytes.t;
  mutable ack_lo : int; (* lowest unacknowledged segment *)
  received : Bytes.t;
  sent_at : float array;
  mutable outstanding : int; (* segments with a non-nan [sent_at] *)
  retx : Bytes.t; (* segments queued for retransmission *)
  mutable retx_count : int;
  mutable retx_min : int; (* lower bound on the lowest set [retx] bit *)
  mutable rto_handle : Engine.Sim.handle option;
  mutable received_bytes : int;
  mutable completed : bool;
}

type cbr = { stats : cbr_stats }

(* A registry slot no flow has taken is [Vacant].  A windowed flow that
   is complete and fully acknowledged is retired to [Done]: its
   per-segment arrays go, and only the ranker a late duplicate data
   packet's ACK needs stays. *)
type flow = Vacant | Windowed of wflow | Cbr of cbr | Done of Sched.Ranker.t

type t = {
  sim : Engine.Sim.t;
  mutable net : Net.t option;
  (* Flow ids are dense (allocated by [fresh_flow_id]), so the registry
     is a growable array: delivery dispatch is one bounds check and one
     load per packet instead of a hash + structural key compare. *)
  mutable flows : flow array;
  mutable next_flow_id : int;
  mutable active : int;
}

let create ~sim () =
  { sim; net = None; flows = Array.make 256 Vacant; next_flow_id = 0; active = 0 }

let register t id fl =
  let n = Array.length t.flows in
  if id >= n then begin
    let bigger = Array.make (max (2 * n) (id + 1)) Vacant in
    Array.blit t.flows 0 bigger 0 n;
    t.flows <- bigger
  end;
  t.flows.(id) <- fl

let attach t net =
  match t.net with
  | Some _ -> invalid_arg "Transport.attach: already attached"
  | None -> t.net <- Some net

let net t =
  match t.net with
  | Some n -> n
  | None -> invalid_arg "Transport: not attached to a fabric"

let fresh_flow_id t =
  let id = t.next_flow_id in
  t.next_flow_id <- id + 1;
  id

let active_flows t = t.active

(* ------------------------------------------------------------------ *)
(* Windowed transport                                                 *)
(* ------------------------------------------------------------------ *)

let payload_at f seq =
  let rest = f.size - seq in
  if f.mtu < rest then f.mtu else rest
let num_segments ~size ~mtu = (size + mtu - 1) / mtu

let retx_add f seg =
  if Bytes.unsafe_get f.retx seg = '\000' then begin
    Bytes.unsafe_set f.retx seg '\001';
    f.retx_count <- f.retx_count + 1;
    if seg < f.retx_min then f.retx_min <- seg
  end

(* Lowest segment queued for retransmission; caller checks the count.
   [retx_min] only ever lags the true minimum downward, so the scan
   resumes where the last take left off (amortized O(1)). *)
let retx_take_min f =
  let n = Bytes.length f.retx in
  let seg = ref f.retx_min in
  while !seg < n && Bytes.unsafe_get f.retx !seg = '\000' do incr seg done;
  Bytes.unsafe_set f.retx !seg '\000';
  f.retx_count <- f.retx_count - 1;
  f.retx_min <- !seg;
  !seg * f.mtu

let send_data t f seq =
  let now = Engine.Sim.now t.sim in
  let payload = payload_at f seq in
  let p =
    Sched.Packet.make ~kind:Sched.Packet.Data ~tenant:f.tenant ~src:f.src
      ~dst:f.dst ~seq ~payload
      ~remaining:(f.size - f.acked_bytes)
      ~deadline:f.deadline ~created_at:now ~flow:f.id
      ~size:(payload + Sched.Packet.header_bytes)
      ()
  in
  ignore (Sched.Ranker.tag f.ranker ~now p);
  let seg = seq / f.mtu in
  if Float.is_nan f.sent_at.(seg) then f.outstanding <- f.outstanding + 1;
  f.sent_at.(seg) <- now;
  Net.inject (net t) p

let rec arm_rto t f =
  match f.rto_handle with
  | Some _ -> ()
  | None ->
    if f.outstanding > 0 then
      f.rto_handle <-
        Some (Engine.Sim.schedule_after t.sim ~delay:f.rto (fun () -> on_rto t f))

and on_rto t f =
  f.rto_handle <- None;
  let now = Engine.Sim.now t.sim in
  (* Only segments from the lowest unacknowledged one to the last one
     sent can be outstanding: below, every segment is acknowledged; above,
     none was sent. *)
  let sent_segs = (f.next_offset + f.mtu - 1) / f.mtu in
  for seg = f.ack_lo to sent_segs - 1 do
    let sent = f.sent_at.(seg) in
    if (not (Float.is_nan sent)) && now -. sent >= f.rto -. 1e-12 then begin
      f.sent_at.(seg) <- Float.nan;
      f.outstanding <- f.outstanding - 1;
      retx_add f seg
    end
  done;
  fill t f;
  arm_rto t f

and fill t f =
  if f.outstanding < f.window then begin
    let seq =
      if f.retx_count > 0 then Some (retx_take_min f)
      else if f.next_offset < f.size then begin
        let seq = f.next_offset in
        f.next_offset <- seq + payload_at f seq;
        Some seq
      end
      else None
    in
    match seq with
    | None -> ()
    | Some seq ->
      send_data t f seq;
      fill t f
  end;
  arm_rto t f

(* Payload bytes per data packet: an Ethernet MTU's worth. *)
let mtu_payload = 1460

let start_flow t ~tenant ~ranker ~src ~dst ~size ?(window = 12) ?(rto = 1e-3)
    ?(deadline = infinity) ~on_complete () =
  if size <= 0 then invalid_arg "Transport.start_flow: size <= 0";
  if window <= 0 then invalid_arg "Transport.start_flow: window <= 0";
  if rto <= 0. then invalid_arg "Transport.start_flow: rto <= 0";
  if src = dst then invalid_arg "Transport.start_flow: src = dst";
  let id = fresh_flow_id t in
  let nseg = num_segments ~size ~mtu:mtu_payload in
  let f =
    {
      id;
      tenant;
      src;
      dst;
      size;
      ranker;
      window;
      rto;
      mtu = mtu_payload;
      deadline;
      started_at = Engine.Sim.now t.sim;
      on_complete;
      next_offset = 0;
      acked = Bytes.make nseg '\000';
      ack_lo = 0;
      acked_bytes = 0;
      received = Bytes.make nseg '\000';
      sent_at = Array.make nseg Float.nan;
      outstanding = 0;
      retx = Bytes.make nseg '\000';
      retx_count = 0;
      retx_min = 0;
      rto_handle = None;
      received_bytes = 0;
      completed = false;
    }
  in
  register t id (Windowed f);
  t.active <- t.active + 1;
  fill t f;
  id

(* The ACK is built from the data packet's own fields, which carry its
   flow's tenant, hosts, deadline and id, so a retired flow answers a late
   duplicate exactly as the live flow would have. *)
let send_ack t ranker (data : Sched.Packet.t) =
  let now = Engine.Sim.now t.sim in
  let ack =
    Sched.Packet.make ~kind:Sched.Packet.Ack ~tenant:data.Sched.Packet.tenant
      ~src:data.Sched.Packet.dst ~dst:data.Sched.Packet.src
      ~seq:data.Sched.Packet.seq ~payload:0 ~remaining:0
      ~deadline:data.Sched.Packet.deadline ~created_at:now
      ~flow:data.Sched.Packet.flow ~size:Sched.Packet.header_bytes ()
  in
  ignore (Sched.Ranker.tag ranker ~now ack);
  Net.inject (net t) ack

let receive_data t f (p : Sched.Packet.t) =
  let seg = p.Sched.Packet.seq / f.mtu in
  if Bytes.unsafe_get f.received seg = '\000' then begin
    Bytes.unsafe_set f.received seg '\001';
    f.received_bytes <- f.received_bytes + p.Sched.Packet.payload
  end;
  if (not f.completed) && f.received_bytes >= f.size then begin
    f.completed <- true;
    t.active <- t.active - 1;
    f.on_complete
      {
        flow_id = f.id;
        tenant = f.tenant;
        size = f.size;
        started_at = f.started_at;
        completed_at = Engine.Sim.now t.sim;
      }
  end;
  send_ack t f.ranker p

let receive_ack t f (p : Sched.Packet.t) =
  let seq = p.Sched.Packet.seq in
  let seg = seq / f.mtu in
  if not (Float.is_nan f.sent_at.(seg)) then begin
    f.sent_at.(seg) <- Float.nan;
    f.outstanding <- f.outstanding - 1
  end;
  if Bytes.unsafe_get f.retx seg = '\001' then begin
    Bytes.unsafe_set f.retx seg '\000';
    f.retx_count <- f.retx_count - 1
  end;
  if Bytes.unsafe_get f.acked seg = '\000' then begin
    Bytes.unsafe_set f.acked seg '\001';
    f.acked_bytes <- f.acked_bytes + payload_at f seq;
    let n = Bytes.length f.acked in
    while f.ack_lo < n && Bytes.unsafe_get f.acked f.ack_lo = '\001' do
      f.ack_lo <- f.ack_lo + 1
    done
  end;
  if f.acked_bytes >= f.size then begin
    (* Everything delivered and acknowledged: quiesce the sender and
       retire the flow.  Every ACK answers a received segment, so the
       receiver has completed too. *)
    (match f.rto_handle with
    | Some h ->
      Engine.Sim.cancel h;
      f.rto_handle <- None
    | None -> ());
    if f.completed then t.flows.(f.id) <- Done f.ranker
  end
  else fill t f

(* ------------------------------------------------------------------ *)
(* CBR transport                                                      *)
(* ------------------------------------------------------------------ *)

let start_cbr t ~tenant ~ranker ~src ~dst ~rate ?(deadline_budget = 1e-3)
    ?jitter ~until () =
  if rate <= 0. then invalid_arg "Transport.start_cbr: rate <= 0";
  if deadline_budget <= 0. then invalid_arg "Transport.start_cbr: budget <= 0";
  if src = dst then invalid_arg "Transport.start_cbr: src = dst";
  let id = fresh_flow_id t in
  let stats =
    { sent = 0; delivered = 0; deadline_met = 0; delay = Engine.Stats.create ~keep_samples:false () }
  in
  register t id (Cbr { stats });
  let wire = mtu_payload + Sched.Packet.header_bytes in
  let mean_gap = 8. *. float_of_int wire /. rate in
  let seq = ref 0 in
  let rec send_one () =
    let now = Engine.Sim.now t.sim in
    if now < until then begin
      let p =
        Sched.Packet.make ~kind:Sched.Packet.Data ~tenant ~src ~dst ~seq:!seq
          ~payload:mtu_payload ~remaining:mtu_payload
          ~deadline:(now +. deadline_budget) ~created_at:now ~flow:id
          ~size:wire ()
      in
      seq := !seq + mtu_payload;
      ignore (Sched.Ranker.tag ranker ~now p);
      stats.sent <- stats.sent + 1;
      Net.inject (net t) p;
      let gap =
        match jitter with
        | None -> mean_gap
        | Some rng -> Engine.Rng.exponential rng ~mean:mean_gap
      in
      Engine.Sim.schedule_after_ t.sim ~delay:gap send_one
    end
  in
  send_one ();
  stats

let receive_cbr t c (p : Sched.Packet.t) =
  let now = Engine.Sim.now t.sim in
  c.stats.delivered <- c.stats.delivered + 1;
  Engine.Stats.add c.stats.delay (now -. p.Sched.Packet.created_at);
  if now <= p.Sched.Packet.deadline then
    c.stats.deadline_met <- c.stats.deadline_met + 1

(* ------------------------------------------------------------------ *)
(* Delivery dispatch                                                  *)
(* ------------------------------------------------------------------ *)

let deliver t (p : Sched.Packet.t) =
  let id = p.Sched.Packet.flow in
  if id >= 0 && id < Array.length t.flows then
    match t.flows.(id) with
    | Vacant -> () (* an id no flow was registered under *)
    | Done ranker -> (
      match p.Sched.Packet.kind with
      | Sched.Packet.Data -> send_ack t ranker p
      | Sched.Packet.Ack -> ())
    | Windowed f -> (
      match p.Sched.Packet.kind with
      | Sched.Packet.Data -> receive_data t f p
      | Sched.Packet.Ack -> receive_ack t f p)
    | Cbr c -> (
      match p.Sched.Packet.kind with
      | Sched.Packet.Data -> receive_cbr t c p
      | Sched.Packet.Ack -> ())
