(** The default exact PIFO: a min-max heap (Atkinson et al., CACM 1986)
    over a pool of [capacity_pkts] packet slots.

    Each queued packet is one heap entry of three ints: its clamped rank,
    the queue's arrival count when it came in, and its pool slot.
    Entries order by (rank, arrival).  The heap's levels alternate
    between min and max, so the next packet to serve sits at the root
    and the eviction victim is one of the root's two children.  Enqueue,
    dequeue and worst-rank eviction each walk one root-to-leaf path,
    O(log n) for [n] queued packets, with no scan.  Once the first
    packet has arrived, enqueue allocates nothing and dequeue only its
    [Some].

    Semantics: dequeue serves the lowest rank, and equal ranks in the
    order they arrived at this queue.  When the queue is full, an
    arrival ranked no better than the current worst is dropped;
    otherwise the latest arrival of the worst rank is evicted.  Arrival
    is the order packets were enqueued here, not their uid order (the
    tie contract of {!Qdisc.t.dequeue}).  It is fuzzed against a
    sorted-list model and the conformance oracle as an exact backend.

    Ranks outside [\[0, rank_max\]] are clamped to the boundary for
    ordering, so out-of-range ranks tie (the packet's own [rank] field
    is untouched).  QVISOR's synthesizer never emits such ranks; the
    clamp only matters when the queue is driven directly with
    unnormalized ranks.

    The name is historical: the module used to be an Eiffel-style
    bucket queue (one FIFO per rank under find-first-set bitmaps), whose
    memory grew with the rank space a port had seen.  The name stays
    because the benchmark harness calls [Bucket_queue.create]. *)

val create :
  ?name:string -> ?rank_max:int -> capacity_pkts:int -> unit -> Qdisc.t
(** [rank_max] defaults to 65535, the synthesizer's quantization ceiling
    ({!Qvisor.Synthesizer.default_config}); it sets only the clamp.
    Memory is O(capacity_pkts) whatever [rank_max] is: 5 words per
    slot, allocated up front except the packet pool, which the first
    enqueue allocates.  A drained queue holds no packet but the first it
    ever saw, which blanks free slots, so its footprint is back to the
    size it had after that first enqueue.

    @raise Invalid_argument if [capacity_pkts <= 0], [capacity_pkts >
    2^21 - 2] or [rank_max < 0]. *)
