(** Performance observability: allocation/GC telemetry, per-stage
    throughput meters, and a noise-aware micro-benchmark harness with a
    statistically-gated comparator.

    This is the measurement scaffolding the engine-rewrite roadmap item
    is judged against.  Four layers, cheapest first:

    - {!allocated_bytes} and {!sample_gc}: allocation counters and
      [Gc.quick_stat]-derived collection/heap/pause gauges pushed into a
      {!Telemetry} registry (and from there rendered by {!Exposition});
    - {!Meter} / {!Meters}: per-stage monotonic event counters with
      sampled minor-heap allocation attribution, published as events/sec
      and alloc-bytes/event gauges at window close;
    - {!Bench}: repeated-trial micro-benchmarks reporting min/median/MAD
      for both ns/op and allocated bytes/op — the producer of
      [BENCH_engine.json];
    - {!Diff}: the comparator behind [qvisor-cli bench diff] — MAD-based
      noise bands, a configurable relative threshold, a regression table
      and a machine-readable verdict. *)

val word_bytes : float
(** Bytes per OCaml word on this platform ([Sys.word_size / 8]). *)

val allocated_bytes : unit -> float
(** Total bytes allocated by this domain since program start
    ([minor_words + major_words - promoted_words], scaled to bytes).
    Monotonic; differences measure allocation between two points. *)

val probe_overhead_bytes : float
(** Bytes one {!allocated_bytes} call itself allocates (calibrated once
    at module initialisation).  A delta of two probes includes exactly
    the first probe's own footprint — subtract this to correct. *)

val write_atomic : string -> (out_channel -> unit) -> unit
(** [write_atomic path f] runs [f] on a temporary file in [path]'s
    directory and renames it over [path] on success, so an interrupted
    writer can never leave a truncated file at [path].  On exception the
    temporary file is removed and the exception re-raised. *)

(** {1 GC telemetry} *)

(** Maximum GC-pause observation via [Runtime_events] (OCaml >= 5.0).
    Tracking is best-effort: {!start} returns [None] when the runtime
    ring cannot be set up (and the run proceeds unobserved). *)
module Pause : sig
  type t

  val start : unit -> t option
  (** Enable the runtime-events ring (placed under the system temp
      directory unless [OCAML_RUNTIME_EVENTS_DIR] is already set) and
      open a self-cursor. *)

  val poll : t -> unit
  (** Drain pending runtime events, updating the running maximum.  Call
      periodically — the ring is bounded and unread events are lost. *)

  val max_pause_seconds : t -> float
  (** Longest runtime phase (GC slice or pause) observed so far, in
      seconds; [0.] before any collection.  Approximate: the longest
      begin-to-end runtime-phase interval seen on any ring. *)
end

val sample_gc : ?pause:Pause.t -> Telemetry.t -> unit
(** Sample [Gc.quick_stat] into gauges: [gc.minor_collections],
    [gc.major_collections], [gc.compactions], [gc.heap_words],
    [gc.top_heap_words], [gc.minor_words], [gc.promoted_words],
    [gc.major_words] and [gc.allocated_bytes]; with [pause], also polls
    it and sets [gc.max_pause_seconds].  No-op on a disabled registry. *)

(** {1 Per-stage throughput meters} *)

(** A cheap monotonic event counter for one hot-path stage.  Every
    {!before}/{!after} bracket counts one event; every [sample]-th
    event additionally measures the bytes allocated inside the bracket,
    so allocs/event converges while the steady-state cost stays one
    increment, one mask and one branch. *)
module Meter : sig
  type t

  val create : ?sample:int -> string -> t
  (** [sample] (default 64) must be a power of two.
      @raise Invalid_argument otherwise. *)

  val disabled : t
  (** Shared no-op meter: both brackets degenerate to one branch. *)

  val name : t -> string
  val before : t -> unit
  val after : t -> unit

  val ops : t -> int
  (** Events counted so far. *)

  val alloc_bytes_per_op : t -> float
  (** Sampled mean bytes allocated on the minor heap per event ([nan]
      before the first sampled event).  Exact for the bracketed code:
      the probe allocates nothing and ignores major-heap allocation,
      which {!sample_gc}'s [gc.*] gauges report. *)
end

(** The fixed stage set the fabric instruments: enqueue, dequeue,
    preprocess, recorder and SLO-audit paths. *)
module Meters : sig
  type t

  val create : unit -> t
  val disabled : t
  val is_enabled : t -> bool
  val enqueue : t -> Meter.t
  val dequeue : t -> Meter.t
  val preprocess : t -> Meter.t
  val recorder : t -> Meter.t
  val slo_audit : t -> Meter.t

  val all : t -> Meter.t list
  (** The five stage meters, fixed order. *)

  val publish : t -> Telemetry.t -> unit
  (** Window close: for each stage, add the window's event count to the
      [perf.stage.<stage>.events] counter and set
      [perf.stage.<stage>.events_per_sec] (events this window over
      wall-clock seconds since the previous publish) and
      [perf.stage.<stage>.alloc_bytes_per_event] gauges.  Stages idle in
      the window keep their last rate gauge.  No-op when either side is
      disabled. *)
end

(** {1 Micro-benchmark harness} *)

(** Order statistics over repeated trials. *)
module Summary : sig
  type t = {
    s_min : float;
    s_median : float;
    s_mad : float;  (** median absolute deviation from the median *)
    s_samples : float list;  (** per-trial values, trial order *)
  }

  val of_samples : float list -> t
  (** [nan] statistics on an empty list. *)

  val median : float list -> float
end

module Bench : sig
  type entry = {
    b_name : string;
    b_iters : int;  (** operations per trial (after calibration) *)
    b_trials : int;
    b_ns_per_op : Summary.t;
    b_alloc_per_op : Summary.t;  (** allocated bytes per operation *)
  }

  val run :
    ?trials:int -> ?min_time_s:float -> name:string -> (int -> unit) -> entry
  (** [run ~name f] calibrates an iteration count so [f iters] runs for
      at least [min_time_s] (default [0.05]) seconds, then executes
      [trials] (default 7) timed trials, each also measured with
      {!allocated_bytes} deltas (probe-corrected).  [f n] must perform
      the operation under test [n] times.
      @raise Invalid_argument when [trials] or [min_time_s] is not
      strictly positive. *)

  val schema : string
  (** ["qvisor-bench-engine/1"] — the [BENCH_engine.json] envelope. *)

  val report_to_json : mode:string -> entry list -> Json.t
  (** [{"schema":…,"mode":…,"benchmarks":[…]}] with non-finite numbers
      encoded as [null]. *)

  val report_of_json : Json.t -> (entry list, string) result
  val read_report : string -> (entry list, string) result
  (** Parse a report file; errors are prefixed with the path. *)
end

(** {1 Statistical comparator} *)

module Diff : sig
  type verdict =
    | Regression  (** slower/fatter by >= threshold, outside noise *)
    | Improvement
    | Within_noise
        (** change below threshold, or within [noise_k * (MAD + MAD)] *)
    | Missing_baseline  (** metric only in the current report *)
    | Missing_current  (** metric only in the baseline report *)
    | Incomparable  (** baseline median zero, negative or non-finite *)

  type row = {
    r_metric : string;  (** ["<bench> ns/op"] or ["<bench> alloc B/op"] *)
    r_old : float;  (** baseline median ([nan] when missing) *)
    r_new : float;
    r_change : float;  (** relative change ([nan] when not comparable) *)
    r_noise : float;  (** the absolute noise band around the baseline *)
    r_verdict : verdict;
  }

  type report = {
    d_threshold : float;
    d_noise_k : float;
    d_rows : row list;
  }

  val compare :
    ?threshold:float ->
    ?noise_k:float ->
    baseline:Bench.entry list ->
    current:Bench.entry list ->
    unit ->
    report
  (** Pair benchmarks by name and judge both dimensions of each pair.
      A dimension regresses when its median grew by at least
      [threshold] (default [0.15], relative — the boundary counts) {e
      and} the absolute change exceeds [noise_k] (default [3.]) times
      the sum of the two MADs; symmetrically for improvement; anything
      else is within noise.  Metrics present on one side only, and
      baselines with zero/NaN medians, are reported but never gate. *)

  val regressions : report -> int
  val verdict_name : verdict -> string

  val report_to_json : report -> Json.t
  (** [{"schema":"qvisor-bench-diff/1",…,"verdict":"pass"|"regression",
      "rows":[…]}] — the machine-readable verdict. *)

  val pp_report : Format.formatter -> report -> unit
  (** The regression table, worst relative change first. *)
end
