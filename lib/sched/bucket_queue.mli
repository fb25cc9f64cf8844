(** Eiffel-style FFS-indexed circular bucket queue (Saeed et al., NSDI
    2019) — an exact PIFO over the bounded post-quantization rank space.

    One intrusive FIFO per rank, indexed by a hierarchical find-first-set
    bitmap: enqueue, dequeue and worst-rank eviction are O(1) (a constant
    number of 32-bit word scans), with zero allocation per operation after
    the first enqueue.  Semantics match {!Pifo_queue} exactly — dequeue in
    ascending [(rank, uid)] order; when full, an arrival ranked no better
    than the current worst is dropped, otherwise the worst-ranked most
    recently arrived packet is evicted — so it is a drop-in replacement
    wherever QVISOR's rank normalization bounds ranks to
    [\[0, rank_max\]], and is fuzzed against the conformance oracle as an
    exact backend.

    Ranks outside [\[0, rank_max\]] are clamped to the boundary bucket for
    ordering (the packet's own [rank] field is untouched).  QVISOR's
    synthesizer never emits such ranks; the clamp only matters when the
    queue is driven directly with unnormalized ranks. *)

val create :
  ?name:string -> ?rank_max:int -> capacity_pkts:int -> unit -> Qdisc.t
(** [rank_max] defaults to 65535, the synthesizer's quantization ceiling
    ({!Qvisor.Synthesizer.default_config}).  Memory is O(rank_max / 32 +
    capacity_pkts) up front (~20 KB at the default rank space, mostly
    the occupancy bitmap), plus 8 KB for each 1,024-rank range the
    first time a packet lands in it.

    @raise Invalid_argument if [capacity_pkts <= 0] or [rank_max < 0]. *)
