(** Cross-cutting telemetry: a named metric registry and a sampled
    structured trace sink.

    Every data-plane component takes an optional registry; the registry is
    either {e enabled} (metrics are interned by name and accumulate) or the
    shared {!disabled} value, in which case every handle returned is a
    detached dummy and every operation degenerates to a single unobserved
    store — near-zero cost, no branches in callers.

    Three metric kinds cover the repro's needs:

    - {b counters} — monotone event counts (enqueues, drops, table hits);
    - {b gauges} — last-written values (events fired, wall-clock seconds);
    - {b histograms} — constant-memory distributions: Welford moments
      (as {!Stats} computes them) plus P² sketches ({!P2_quantile}) for
      p50/p90/p99.

    Orthogonally, a registry may carry one {e trace sink}: an NDJSON
    [out_channel] receiving one {!Recorder.event} row per sampled
    packet-level event (preprocess / enqueue / dequeue / drop / evict), in
    {!Recorder.event_to_json}'s line schema.  Sampling draws from a
    dedicated {!Rng} stream, so traces are deterministic for a fixed
    seed. *)

type t
(** A metric registry (plus optional trace sink). *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  (** Fold one observation into the moments and the three sketches.
      Allocates nothing (the moments live in an unboxed float array, and
      {!P2_quantile.add} is allocation-free); a caller that computes the
      float just for the call still boxes it, unless the call is inlined. *)

  val count : t -> int
  val mean : t -> float
  (** [nan] when empty, like {!Stats.mean}. *)

  val quantile : t -> float -> float
  (** [quantile t q] is the live P² estimate of the [q]-quantile for the
      three sketches a histogram maintains: [q] must be [0.5], [0.9] or
      [0.99].  [nan] when empty, exact below five observations
      ({!P2_quantile.estimate}).
      @raise Invalid_argument for any other [q]. *)

  val sum : t -> float
  (** Sum of the observations ([0.] when empty) — with {!count} this is
      what a Prometheus summary exposes as [_sum]/[_count]. *)
end

val create : unit -> t
(** A fresh, enabled registry. *)

val disabled : t
(** The shared no-op registry: handles created from it are inert dummies,
    [trace] and [attach_sink] do nothing, and [snapshot] is empty. *)

val is_enabled : t -> bool

val counter : t -> string -> Counter.t
(** Intern (or retrieve) the counter registered under a name.  Two calls
    with the same name return the same accumulator. *)

val gauge : t -> string -> Gauge.t

val histogram : t -> string -> Histogram.t

(** {1 Trace sink} *)

val attach_sink : t -> ?sample:float -> ?seed:int -> out_channel -> unit
(** Attach an NDJSON event sink.  [sample] (default [1.0]) is the
    probability that any given event is written; draws come from a
    splitmix64 stream seeded with [seed] (default [0]), so the set of
    sampled events is a deterministic function of the seed.  The channel
    stays owned by the caller.  Replaces any previous sink; the replaced
    sink's channel is flushed first, so buffered NDJSON lines are never
    lost by a swap (the old channel is not closed — it stays owned by
    whoever attached it).
    @raise Invalid_argument unless [0. <= sample <= 1.]. *)

val detach_sink : t -> unit
(** Flush and forget the sink.  The channel is flushed so every buffered
    line reaches it, but it is not closed — the caller that attached it
    closes it. Detaching when no sink is attached is a no-op. *)

val tracing : t -> bool
(** [true] when a sink is attached — the hot-path guard: callers test it
    before {!trace}, so a registry without a sink evaluates no
    arguments. *)

val trace :
  t ->
  time:float ->
  kind:Recorder.kind ->
  uid:int ->
  link:int ->
  tenant:int ->
  flow:int ->
  rank_before:int ->
  rank:int ->
  unit
(** Offer one row to the sink: counted, then written as
    {!Recorder.event_to_json}'s line if the sampler keeps it.  Takes
    {!Recorder.record}'s scalar fields ([-1] where a field does not
    apply).  No-op without a sink. *)

val events_seen : t -> int
(** Events offered to the sink since attach. *)

val events_written : t -> int
(** Events that survived sampling and were written. *)

(** {1 Merge} *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] folds every metric of [src] into [into]:
    counters add, gauges take [src]'s value (last-write-wins, matching a
    serial run where [src]'s work executed later), histograms combine
    moments pairwise as {!Stats.merge_into} does and quantile sketches via
    {!P2_quantile.merge_into}, and trace seen/written counts add when
    both registries carry a sink.  The merge is deterministic: merging
    the same registries in the same order always produces the same
    snapshot, which is how parallel experiment runs keep [--telemetry]
    output independent of the worker count.  No-op when
    either registry is disabled.  [src] is left untouched. *)

(** {1 Export} *)

val exported_counters : t -> (string * int) list
(** Every interned counter as [(name, value)], sorted by name; empty for
    {!disabled}.  The read side used by {!Exposition}. *)

val exported_gauges : t -> (string * float) list

val exported_histograms : t -> (string * Histogram.t) list
(** Live handles, not copies: read them, do not observe into them. *)

val snapshot : t -> Json.t
(** The whole registry as one JSON object:
    [{"counters":{..},"gauges":{..},"histograms":{..},"trace":{..}}],
    names sorted for stable output.  Empty-histogram moments are [null]
    rather than NaN so the result always serializes. *)
