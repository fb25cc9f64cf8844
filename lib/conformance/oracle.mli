(** The ideal joint-PIFO reference model.

    The oracle executes a scenario's event sequence against {e exact}
    PIFO semantics over transformed ranks: packets are served in
    non-decreasing rank order with FIFO tie-break on arrival id (the
    port-arrival contract of {!Sched.Qdisc.t.dequeue}), and the
    drop/eviction model of {!Sched.Bucket_queue} (tail-drop an arrival
    no better than the current worst, otherwise evict the worst-ranked
    most-recently-arrived packet).  Ranks come straight from
    {!Qvisor.Synthesizer.transform_of} + {!Qvisor.Transform.apply} — a
    deliberately independent path from the pre-processor's compiled
    match-action table, so the differential runner also covers table
    compilation.

    The implementation is a plain sorted list with linear insertion:
    obviously correct over the heap/map-based production queues it
    judges, and fast enough for conformance-sized scenarios. *)

type item = {
  sid : int;
      (** scenario-local arrival index (0-based over enqueue events) —
          the arrival-order tie-breaker, stable across replays *)
  tenant : int;
  rank : int;  (** the transformed (joint) rank *)
}

type outcome = {
  served : item list;  (** ground-truth dequeue order *)
  dropped : int list;  (** sids dropped (tail-drop or eviction), in order *)
  remaining : item list;  (** still queued when the events ran out *)
}

val run : plan:Qvisor.Synthesizer.plan -> Scenario.t -> outcome
