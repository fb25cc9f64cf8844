type shaper = { shaper_rate : float; shaper_burst : float }

type bucket = {
  config : shaper;
  mutable tokens : float;
  mutable refilled_at : float;
  mutable wakeup_pending : bool;
}

type port = {
  link : Topology.link;
  qdisc : Sched.Qdisc.t;
  mutable busy : bool;
  mutable tx_bytes : int;
  bucket : bucket option;
  (* The port's previous dequeue, for the equal-rank FIFO-order
     conformance check: rank, uid ([-1] = no dequeue yet), and the
     enqueue/dequeue instants as IEEE-754 bit patterns.  Non-negative
     floats compare monotonically as integer bits, so the check needs
     only int compares and the per-dequeue stores stay allocation- and
     write-barrier-free (no tuple, no boxed floats). *)
  mutable last_rank : int;
  mutable last_uid : int;
  mutable last_enq_bits : int;
  mutable last_deq_bits : int;
  (* Preallocated end-of-transmission and arrival continuations,
     installed right after the net is built so the per-packet hot path
     schedules them without allocating a fresh closure. *)
  mutable tx_done : unit -> unit;
  mutable arrive : unit -> unit;
  (* Packets on the wire, oldest first: a FIFO ring (power-of-two
     capacity) that [arrive] pops.  Ring order is arrival order: the link
     serializes transmissions, each lasting [size * 8 / rate] > 0
     seconds, so the port's arrival times strictly increase, and equal
     times would still fire in push order. *)
  mutable wire : Sched.Packet.t array;
  mutable wire_head : int;
  mutable wire_len : int;
}

(* What a free wire cell holds, so a delivered packet is not kept alive
   by its link.  A literal rather than [Packet.make], which would draw a
   uid. *)
let no_packet : Sched.Packet.t =
  {
    uid = -1;
    kind = Sched.Packet.Data;
    flow = -1;
    tenant = -1;
    src = -1;
    dst = -1;
    size = 0;
    seq = 0;
    payload = 0;
    remaining = 0;
    deadline = infinity;
    created_at = 0.;
    label = 0;
    rank = 0;
    enqueued_at = 0.;
  }

let wire_push port p =
  let cap = Array.length port.wire in
  if port.wire_len = cap then begin
    let grown = Array.make (2 * cap) no_packet in
    for k = 0 to cap - 1 do
      grown.(k) <- port.wire.((port.wire_head + k) land (cap - 1))
    done;
    port.wire <- grown;
    port.wire_head <- 0
  end;
  let mask = Array.length port.wire - 1 in
  port.wire.((port.wire_head + port.wire_len) land mask) <- p;
  port.wire_len <- port.wire_len + 1

let wire_pop port =
  let p = port.wire.(port.wire_head) in
  port.wire.(port.wire_head) <- no_packet;
  port.wire_head <- (port.wire_head + 1) land (Array.length port.wire - 1);
  port.wire_len <- port.wire_len - 1;
  p

module Tel = Engine.Telemetry
module Perf = Engine.Perf

(* Per-tenant counter triple, created lazily the first time a tenant's
   packet crosses the fabric (so a tenant that never sends exports no
   counters). *)
type tenant_counters = {
  t_enq : Tel.Counter.t;
  t_deq : Tel.Counter.t;
  t_drop : Tel.Counter.t;
}

type instruments = {
  tel : Tel.t;
  port_enq : Tel.Counter.t array;
  port_deq : Tel.Counter.t array;
  port_drop : Tel.Counter.t array;
  enq_total : Tel.Counter.t;
  deq_total : Tel.Counter.t;
  drop_total : Tel.Counter.t;
  tie_total : Tel.Counter.t;
  depth : Tel.Histogram.t; (* queue length (pkts) sampled after enqueue *)
  sojourn : Tel.Histogram.t; (* seconds from enqueue to start-of-tx *)
  (* Dense by tenant id, like Slo's and Guard's tables: every enqueue,
     dequeue and drop looks its tenant up, and an array probe into
     preallocated option cells allocates nothing.  Grown on demand. *)
  mutable by_tenant : tenant_counters option array;
}

type flight_config = {
  ring_capacity : int;
  trigger_window : int;
  drop_threshold : float;
  trigger_cooldown : int;
}

let default_flight =
  {
    ring_capacity = 512;
    trigger_window = 128;
    drop_threshold = 0.5;
    trigger_cooldown = 128;
  }

(* Per-port flight recorders plus one drop-rate anomaly trigger each. *)
type flight = {
  recorders : Engine.Recorder.t array;
  triggers : Engine.Recorder.Trigger.t array;
  on_anomaly : link_id:int -> Engine.Recorder.t -> unit;
}

type t = {
  sim : Engine.Sim.t;
  topo : Topology.t;
  num_hosts : int; (* cached: node ids below this are hosts (per-hop check) *)
  routing : Routing.t;
  ports : port array; (* indexed by link id *)
  preprocess : Sched.Packet.t -> unit;
  has_preprocess : bool;
  on_enqueue : Sched.Packet.t -> unit;
  on_dequeue : Sched.Packet.t -> unit;
  on_drop : Sched.Packet.t -> unit;
  on_tie_inversion : Sched.Packet.t -> unit;
  deliver : Sched.Packet.t -> unit;
  ins : instruments option;
  flight : flight option;
  (* Whether any of the four hooks or the meters was given: when not, a
     hop makes none of the hook calls or meter brackets. *)
  observed : bool;
  (* Stage meters, pre-extracted so the hot path pays one field load per
     bracket (all are [Perf.Meter.disabled] unless the caller passed
     enabled meters). *)
  m_enq : Perf.Meter.t;
  m_deq : Perf.Meter.t;
  m_pre : Perf.Meter.t;
  m_rec : Perf.Meter.t;
  m_slo : Perf.Meter.t;
  (* Allocation-free drop plumbing for [Qdisc.enqueue_drop]: one callback
     per net, reading the in-flight enqueue's context from these fields.
     Safe because a discipline's enqueue is synchronous and non-reentrant
     (scheduled callbacks are deferred to the event loop). *)
  mutable drop_cb : Sched.Packet.t -> unit;
  mutable cur_uid : int;
  mutable cur_link : int;
  mutable dropped_any : bool;
}

let make_instruments tel ~num_ports =
  let per_port what =
    Array.init num_ports (fun id ->
        Tel.counter tel (Printf.sprintf "net.port.%d.%s" id what))
  in
  {
    tel;
    port_enq = per_port "enqueue";
    port_deq = per_port "dequeue";
    port_drop = per_port "drop";
    enq_total = Tel.counter tel "net.enqueue";
    deq_total = Tel.counter tel "net.dequeue";
    drop_total = Tel.counter tel "net.drop";
    tie_total = Tel.counter tel "net.tie_inversions";
    depth = Tel.histogram tel "net.queue_depth_pkts";
    sojourn = Tel.histogram tel "net.sojourn_seconds";
    by_tenant = [||];
  }

(* The registry interns by name, so re-creating a triple yields the same
   counters: negative ids (no workload uses one) are not cached and pay
   the lookup by name on every packet. *)
let new_tenant_counters ins id =
  let name what = Printf.sprintf "net.tenant.%d.%s" id what in
  let c =
    {
      t_enq = Tel.counter ins.tel (name "enqueue");
      t_deq = Tel.counter ins.tel (name "dequeue");
      t_drop = Tel.counter ins.tel (name "drop");
    }
  in
  if id >= 0 then begin
    let n = Array.length ins.by_tenant in
    if id >= n then begin
      let grown = Array.make (max (2 * n) (id + 1)) None in
      Array.blit ins.by_tenant 0 grown 0 n;
      ins.by_tenant <- grown
    end;
    ins.by_tenant.(id) <- Some c
  end;
  c

let tenant_counters ins id =
  if id >= 0 && id < Array.length ins.by_tenant then
    match Array.unsafe_get ins.by_tenant id with
    | Some c -> c
    | None -> new_tenant_counters ins id
  else new_tenant_counters ins id

let build ~sim ~topo ~routing ~make_qdisc ?(shaper_of = fun _ -> None)
    ?preprocess ?on_enqueue ?on_dequeue ?on_drop ?on_tie_inversion
    ?telemetry ?(profiler = Engine.Span.disabled) ?flight
    ?(on_anomaly = fun ~link_id:_ _ -> ()) ?(meters = Perf.Meters.disabled)
    ~deliver () =
  Engine.Span.with_ profiler ~name:"net.build" @@ fun () ->
  let observed =
    on_enqueue <> None || on_dequeue <> None || on_drop <> None
    || on_tie_inversion <> None || Perf.Meters.is_enabled meters
  in
  let hook = Option.value ~default:ignore in
  let ports =
    Array.init (Topology.num_links topo) (fun id ->
        let link = Topology.link topo id in
        let bucket =
          match shaper_of link with
          | None -> None
          | Some config ->
            if config.shaper_rate <= 0. then
              invalid_arg "Net.create: shaper rate <= 0";
            if config.shaper_burst < 1518. then
              invalid_arg "Net.create: shaper burst below one packet";
            Some
              {
                config;
                tokens = config.shaper_burst;
                refilled_at = 0.;
                wakeup_pending = false;
              }
        in
        {
          link;
          qdisc = make_qdisc link;
          busy = false;
          tx_bytes = 0;
          bucket;
          last_rank = 0;
          last_uid = -1;
          last_enq_bits = 0;
          last_deq_bits = 0;
          tx_done = ignore;
          arrive = ignore;
          wire = Array.make 4 no_packet;
          wire_head = 0;
          wire_len = 0;
        })
  in
  let ins =
    match telemetry with
    | Some tel when Tel.is_enabled tel ->
      Some (make_instruments tel ~num_ports:(Array.length ports))
    | Some _ | None -> None
  in
  let flight =
    match flight with
    | None -> None
    | Some cfg ->
      let n = Array.length ports in
      Some
        {
          recorders =
            Array.init n (fun _ ->
                Engine.Recorder.create ~capacity:cfg.ring_capacity ());
          triggers =
            Array.init n (fun _ ->
                Engine.Recorder.Trigger.create ~window:cfg.trigger_window
                  ~threshold:cfg.drop_threshold ~cooldown:cfg.trigger_cooldown
                  ());
          on_anomaly;
        }
  in
  {
    sim;
    topo;
    num_hosts = Topology.num_hosts topo;
    routing;
    ports;
    preprocess = Option.value preprocess ~default:(fun _ -> ());
    has_preprocess = preprocess <> None;
    on_enqueue = hook on_enqueue;
    on_dequeue = hook on_dequeue;
    on_drop = hook on_drop;
    on_tie_inversion = hook on_tie_inversion;
    deliver;
    ins;
    flight;
    observed;
    m_enq = Perf.Meters.enqueue meters;
    m_deq = Perf.Meters.dequeue meters;
    m_pre = Perf.Meters.preprocess meters;
    m_rec = Perf.Meters.recorder meters;
    m_slo = Perf.Meters.slo_audit meters;
    drop_cb = ignore;
    cur_uid = -1;
    cur_link = -1;
    dropped_any = false;
  }

(* A dropped (or evicted) packet from the in-flight enqueue: hooks, flight
   record, telemetry — all without materializing a drop list. *)
let handle_drop t (d : Sched.Packet.t) =
  t.dropped_any <- true;
  if t.observed then begin
    Perf.Meter.before t.m_slo;
    t.on_drop d;
    Perf.Meter.after t.m_slo
  end;
  (* The arrival itself is a drop; any other packet is a queued one it
     pushed out.  The flight ring and the trace carry the same kind. *)
  let kind =
    if d.Sched.Packet.uid = t.cur_uid then Engine.Recorder.Drop
    else Engine.Recorder.Evict
  in
  (match t.flight with
  | None -> ()
  | Some fl ->
    Perf.Meter.before t.m_rec;
    Engine.Recorder.record
      fl.recorders.(t.cur_link)
      ~time:(Engine.Sim.now t.sim) ~kind ~uid:d.Sched.Packet.uid
      ~link:t.cur_link ~tenant:d.Sched.Packet.tenant ~flow:d.Sched.Packet.flow
      ~rank_before:(-1) ~rank:d.Sched.Packet.rank;
    Perf.Meter.after t.m_rec);
  match t.ins with
  | None -> ()
  | Some ins ->
    Tel.Counter.incr ins.drop_total;
    Tel.Counter.incr ins.port_drop.(t.cur_link);
    Tel.Counter.incr (tenant_counters ins d.Sched.Packet.tenant).t_drop;
    if Tel.tracing ins.tel then
      Tel.trace ins.tel ~time:(Engine.Sim.now t.sim) ~kind
        ~uid:d.Sched.Packet.uid ~link:t.cur_link ~tenant:d.Sched.Packet.tenant
        ~flow:d.Sched.Packet.flow ~rank_before:(-1) ~rank:d.Sched.Packet.rank

let refill t bucket =
  let now = Engine.Sim.now t.sim in
  let elapsed = now -. bucket.refilled_at in
  bucket.tokens <-
    Float.min bucket.config.shaper_burst
      (bucket.tokens +. (elapsed *. bucket.config.shaper_rate));
  bucket.refilled_at <- now

(* Start transmitting the next queued packet if the link is idle and, on
   shaped ports, the bucket covers the head packet (otherwise sleep until
   it will). *)
let rec pump t port =
  if not port.busy then begin
    let admitted =
      match port.bucket with
      | None -> true
      | Some bucket -> (
        match port.qdisc.Sched.Qdisc.peek () with
        | None -> true (* nothing queued; dequeue below returns None *)
        | Some head ->
          refill t bucket;
          let need = float_of_int head.Sched.Packet.size in
          (* Half-a-byte tolerance: floating-point refills can approach
             [need] asymptotically, which without slack would re-arm
             ever-shorter wakeups forever. *)
          if bucket.tokens +. 0.5 >= need then true
          else begin
            if not bucket.wakeup_pending then begin
              bucket.wakeup_pending <- true;
              let wait =
                ((need -. bucket.tokens) /. bucket.config.shaper_rate) +. 1e-9
              in
              Engine.Sim.schedule_after_ t.sim ~delay:wait (fun () ->
                  bucket.wakeup_pending <- false;
                  pump t port)
            end;
            false
          end)
    in
    match if admitted then port.qdisc.Sched.Qdisc.dequeue () else None with
    | None -> ()
    | Some p ->
      if t.observed then Perf.Meter.before t.m_deq;
      (match port.bucket with
      | Some bucket ->
        bucket.tokens <-
          Float.max 0. (bucket.tokens -. float_of_int p.Sched.Packet.size)
      | None -> ());
      port.busy <- true;
      port.tx_bytes <- port.tx_bytes + p.Sched.Packet.size;
      (* Equal-rank FIFO-order conformance: this packet shares the
         previous dequeue's rank, precedes it in BOTH tie orders (global
         uid and arrival at this port), and was already queued when the
         previous packet left.  A uid-stable PIFO never trips this (it
         would have served the lower uid first), nor does a pure FIFO
         (it would have served the earlier arrival first) — but a
         serve-ties-newest-first backend does so constantly.  Demanding
         both orders inverted keeps cross-hop reordering, where uid
         order and port-arrival order legitimately disagree, from
         counting against a conforming scheduler. *)
      let deq_now = Engine.Sim.now t.sim in
      let enq_bits =
        Int64.to_int (Int64.bits_of_float p.Sched.Packet.enqueued_at)
      in
      if
        port.last_uid >= 0
        && p.Sched.Packet.rank = port.last_rank
        && p.Sched.Packet.uid < port.last_uid
        && enq_bits < port.last_enq_bits
        && enq_bits < port.last_deq_bits
      then begin
        (match t.ins with
        | Some ins -> Tel.Counter.incr ins.tie_total
        | None -> ());
        if t.observed then begin
          Perf.Meter.before t.m_slo;
          t.on_tie_inversion p;
          Perf.Meter.after t.m_slo
        end
      end;
      port.last_rank <- p.Sched.Packet.rank;
      port.last_uid <- p.Sched.Packet.uid;
      port.last_enq_bits <- enq_bits;
      port.last_deq_bits <- Int64.to_int (Int64.bits_of_float deq_now);
      if t.observed then begin
        Perf.Meter.before t.m_slo;
        t.on_dequeue p;
        Perf.Meter.after t.m_slo
      end;
      (match t.flight with
      | None -> ()
      | Some fl ->
        let link_id = port.link.Topology.id in
        Perf.Meter.before t.m_rec;
        Engine.Recorder.record
          fl.recorders.(link_id)
          ~time:(Engine.Sim.now t.sim) ~kind:Engine.Recorder.Dequeue
          ~uid:p.Sched.Packet.uid ~link:link_id ~tenant:p.Sched.Packet.tenant
          ~flow:p.Sched.Packet.flow ~rank_before:(-1)
          ~rank:p.Sched.Packet.rank;
        Perf.Meter.after t.m_rec);
      (match t.ins with
      | None -> ()
      | Some ins ->
        let link_id = port.link.Topology.id in
        let tenant = p.Sched.Packet.tenant in
        Tel.Counter.incr ins.deq_total;
        Tel.Counter.incr ins.port_deq.(link_id);
        Tel.Counter.incr (tenant_counters ins tenant).t_deq;
        let now = Engine.Sim.now t.sim in
        Tel.Histogram.observe ins.sojourn (now -. p.Sched.Packet.enqueued_at);
        if Tel.tracing ins.tel then
          Tel.trace ins.tel ~time:now ~kind:Engine.Recorder.Dequeue
            ~uid:p.Sched.Packet.uid ~link:link_id ~tenant
            ~flow:p.Sched.Packet.flow ~rank_before:(-1)
            ~rank:p.Sched.Packet.rank);
      let tx_time = 8. *. float_of_int p.Sched.Packet.size /. port.link.Topology.rate in
      let arrival = tx_time +. port.link.Topology.delay in
      wire_push port p;
      Engine.Sim.schedule_after_ t.sim ~delay:tx_time port.tx_done;
      Engine.Sim.schedule_after_ t.sim ~delay:arrival port.arrive;
      if t.observed then Perf.Meter.after t.m_deq
  end

and enqueue t port p =
  (* The enqueue meter brackets the whole per-hop admission path
     (preprocess and audit hooks included); the nested preprocess /
     slo_audit / recorder meters attribute its components. *)
  if t.observed then begin
    Perf.Meter.before t.m_enq;
    Perf.Meter.before t.m_pre;
    t.preprocess p;
    Perf.Meter.after t.m_pre;
    Perf.Meter.before t.m_slo;
    t.on_enqueue p;
    Perf.Meter.after t.m_slo
  end
  else t.preprocess p;
  p.Sched.Packet.enqueued_at <- Engine.Sim.now t.sim;
  let link_id = port.link.Topology.id in
  (* Admission-side flight records and telemetry are written before the
     qdisc call so the drop callback's Drop/Evict entries land after the
     Enqueue entry, preserving the ring's event order. *)
  (match t.flight with
  | None -> ()
  | Some fl ->
    let now = Engine.Sim.now t.sim in
    let rec_ = fl.recorders.(link_id) in
    Perf.Meter.before t.m_rec;
    if t.has_preprocess then
      Engine.Recorder.record rec_ ~time:now
        ~kind:Engine.Recorder.Preprocess ~uid:p.Sched.Packet.uid
        ~link:link_id ~tenant:p.Sched.Packet.tenant ~flow:p.Sched.Packet.flow
        ~rank_before:p.Sched.Packet.label ~rank:p.Sched.Packet.rank;
    Engine.Recorder.record rec_ ~time:now ~kind:Engine.Recorder.Enqueue
      ~uid:p.Sched.Packet.uid ~link:link_id ~tenant:p.Sched.Packet.tenant
      ~flow:p.Sched.Packet.flow ~rank_before:(-1) ~rank:p.Sched.Packet.rank;
    Perf.Meter.after t.m_rec);
  (match t.ins with
  | None -> ()
  | Some ins ->
    let tenant = p.Sched.Packet.tenant in
    Tel.Counter.incr ins.enq_total;
    Tel.Counter.incr ins.port_enq.(link_id);
    Tel.Counter.incr (tenant_counters ins tenant).t_enq;
    if Tel.tracing ins.tel then begin
      let now = Engine.Sim.now t.sim in
      if t.has_preprocess then
        Tel.trace ins.tel ~time:now ~kind:Engine.Recorder.Preprocess
          ~uid:p.Sched.Packet.uid ~link:link_id ~tenant
          ~flow:p.Sched.Packet.flow ~rank_before:p.Sched.Packet.label
          ~rank:p.Sched.Packet.rank;
      Tel.trace ins.tel ~time:now ~kind:Engine.Recorder.Enqueue
        ~uid:p.Sched.Packet.uid ~link:link_id ~tenant ~flow:p.Sched.Packet.flow
        ~rank_before:(-1) ~rank:p.Sched.Packet.rank
    end);
  t.cur_uid <- p.Sched.Packet.uid;
  t.cur_link <- link_id;
  t.dropped_any <- false;
  port.qdisc.Sched.Qdisc.enqueue_drop p t.drop_cb;
  (match t.flight with
  | None -> ()
  | Some fl ->
    if
      Engine.Recorder.Trigger.observe fl.triggers.(link_id)
        ~dropped:t.dropped_any
    then fl.on_anomaly ~link_id fl.recorders.(link_id));
  (match t.ins with
  | None -> ()
  | Some ins ->
    Tel.Histogram.observe ins.depth
      (float_of_int (port.qdisc.Sched.Qdisc.length ())));
  if t.observed then Perf.Meter.after t.m_enq;
  pump t port

and forward t node p =
  let link =
    Routing.next_link t.routing ~node ~dst:p.Sched.Packet.dst
      ~flow:p.Sched.Packet.flow
  in
  enqueue t t.ports.(link.Topology.id) p

and receive t node p =
  if node = p.Sched.Packet.dst then t.deliver p
  else if node >= t.num_hosts then forward t node p
  else
    (* A host is never a transit node in sane topologies. *)
    invalid_arg "Net.receive: packet transited a host"

let create ~sim ~topo ~routing ~make_qdisc ?shaper_of ?preprocess ?on_enqueue
    ?on_dequeue ?on_drop ?on_tie_inversion ?telemetry ?profiler ?flight
    ?on_anomaly ?meters ~deliver () =
  let t =
    build ~sim ~topo ~routing ~make_qdisc ?shaper_of ?preprocess ?on_enqueue
      ?on_dequeue ?on_drop ?on_tie_inversion ?telemetry ?profiler ?flight
      ?on_anomaly ?meters ~deliver ()
  in
  t.drop_cb <- handle_drop t;
  Array.iter
    (fun port ->
      port.tx_done <-
        (fun () ->
          port.busy <- false;
          pump t port);
      port.arrive <- (fun () -> receive t port.link.Topology.dst (wire_pop port)))
    t.ports;
  t

let inject t p =
  let src = p.Sched.Packet.src in
  (match Topology.kind t.topo src with
  | Topology.Host -> ()
  | Topology.Switch -> invalid_arg "Net.inject: src is not a host");
  forward t src p

let total_drops t =
  Array.fold_left (fun acc port -> acc + port.qdisc.Sched.Qdisc.drops ()) 0 t.ports

let port_qdisc t ~link_id = t.ports.(link_id).qdisc

let queued_packets t =
  Array.fold_left (fun acc port -> acc + port.qdisc.Sched.Qdisc.length ()) 0 t.ports

let port_tx_bytes t ~link_id = t.ports.(link_id).tx_bytes

let link_utilization t ~link_id ~now =
  if now <= 0. then 0.
  else begin
    let port = t.ports.(link_id) in
    8. *. float_of_int port.tx_bytes /. (port.link.Topology.rate *. now)
  end

let busiest_links t ~now ~top =
  let all =
    Array.to_list
      (Array.mapi
         (fun link_id _ -> (link_id, link_utilization t ~link_id ~now))
         t.ports)
  in
  let sorted = List.sort (fun (_, a) (_, b) -> compare b a) all in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take top sorted
