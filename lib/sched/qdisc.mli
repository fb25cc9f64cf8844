(** Queue disciplines as first-class values.

    A discipline is a record of closures over hidden state.  This lets a
    switch port swap its discipline at runtime (needed for QVISOR's runtime
    re-synthesis experiments) and lets heterogeneous banks mix disciplines,
    which a functor-based encoding would make awkward.

    The hot-path entry point is {!t.enqueue_drop}, which reports dropped
    packets through a caller-supplied callback instead of allocating a
    [Packet.t list] per enqueue.  The list-returning {!t.enqueue} is derived
    from it by {!make} and kept for compatibility (tests, conformance
    replay, examples). *)

type t = {
  name : string;
  enqueue_drop : Packet.t -> (Packet.t -> unit) -> unit;
      (** [enqueue_drop p on_drop] offers packet [p] and calls [on_drop d]
          once per packet dropped by the operation — possibly the offered
          packet itself (tail drop), possibly queued packets evicted to
          make room (PIFO worst-rank eviction), or not at all when
          everything fit.  The callback runs synchronously, before
          [enqueue_drop] returns, and must not re-enter the discipline.
          This is the allocation-free hot path: no list is built. *)
  enqueue : Packet.t -> Packet.t list;
      (** Offer a packet.  Returns the packets dropped by the operation —
          possibly the offered packet itself (tail drop), possibly queued
          packets evicted to make room (PIFO worst-rank eviction), or [[]]
          when everything fit.  Derived from {!t.enqueue_drop} by {!make};
          prefer [enqueue_drop] on hot paths. *)
  dequeue : unit -> Packet.t option;
      (** Remove the packet the discipline schedules next.

          {b Equal-rank tie-break contract:} among queued packets the
          discipline considers equally urgent, service is in port
          arrival order: the order packets were enqueued into this
          discipline, as a hardware PIFO sees them.  It is not uid
          order: on a multi-hop fabric packets reach a port out of uid
          order, and the conformance fleet creates each scenario's
          packets out of arrival order, so a queue that breaks ties by
          {!Packet.t.uid} fails it.  The conformance oracle breaks ties
          by its arrival id.

          Audit (verified by [test_conformance] and fuzzed by
          [qvisor-cli conformance]):
          - [Bucket_queue]: a min-max heap keyed by [(rank, arrival)] —
            exact, fuzzed against a sorted-list model and the oracle.
          - [Pifo_tree]: per-node arrival sequencing — conformant.
          - [Fifo_queue], [Sp_bank], [Drr_bank], [Aifo]: FIFO within each
            internal queue — conformant among packets mapped to the same
            queue (cross-queue order is the approximation, not a tie).
          - [Sp_pifo]: equal ranks can land in different queues after a
            push-down, so equal-rank FIFO holds only within a queue; this
            is inherent to the SP-PIFO mechanism and is measured as
            inversions rather than treated as a contract violation.
          - [Calendar_queue]: FIFO within a bucket; ranks beyond the
            ring's horizon now park in a sorted overflow stage and refill
            the ring as it drains, so an older epoch is never served
            behind a newer one (the former wrap-around inversion).  The
            remaining approximation is bucket-width rank coarsening. *)
  peek : unit -> Packet.t option;
  length : unit -> int;  (** queued packets *)
  bytes : unit -> int;  (** queued bytes *)
  drops : unit -> int;  (** cumulative packets dropped by enqueue *)
}

val make :
  name:string ->
  enqueue_drop:(Packet.t -> (Packet.t -> unit) -> unit) ->
  dequeue:(unit -> Packet.t option) ->
  peek:(unit -> Packet.t option) ->
  length:(unit -> int) ->
  bytes:(unit -> int) ->
  drops:(unit -> int) ->
  t
(** Build a discipline from its hot-path operations.  The list-returning
    {!t.enqueue} field is derived from [enqueue_drop] (collects the
    callback's packets in arrival order). *)

val accepted : t -> Packet.t -> Packet.t list -> bool
(** [accepted q p dropped] is [true] when packet [p] survived the enqueue
    that returned [dropped] (i.e. [p] is not among the dropped). *)

val drain : t -> Packet.t list
(** Dequeue everything, in service order. *)
