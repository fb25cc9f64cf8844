(** A fixed-memory, multi-resolution retention store (RRD-style).

    The bounded in-process history behind the daemon's [GET /query] range
    API and the [qvisor-cli top] dashboard: each named series owns one
    preallocated ring per {e tier} (e.g. 1 s raw → 10 s → 60 s), every
    observation lands in all tiers at once, and each ring slot keeps five
    aggregates — count / sum / min / max / last — so any later query can
    downsample without re-reading raw points.  Old buckets are never
    freed or moved: a slot is {e invalidated lazily} when its ring
    position is reused for a newer bucket, so the store's memory is a
    pure function of its shape ({!memory_bytes}), independent of run
    length.

    Two series kinds:

    - {b gauges} observe sampled values directly (a queue depth, a burn
      rate): a bucket's [last] is the latest sample, [sum/count] its
      mean.
    - {b counters} observe the {e cumulative} value of a monotonic
      counter (exactly what {!Telemetry.Counter.value} returns); the
      store converts consecutive observations into increments, treating
      a decrease as a {e counter reset} (the post-reset value counts as
      the increment, matching Prometheus [rate()] semantics).  A
      bucket's [sum] is then the total increase inside the bucket, so
      [sum /. step] is a rate.

    Orthogonally, an {e annotation track} timestamps discrete incidents
    (health transitions, remediation attempts, drop spikes) into the
    same timeline, kept in a fixed-capacity ring of the most recent
    entries.

    Time is the caller's clock (the daemon feeds simulated seconds).
    Observations are expected to be roughly monotonic; a stale write
    into a bucket whose slot was already recycled is dropped rather than
    corrupting newer data. *)

type kind = Gauge | Counter

val kind_to_string : kind -> string
(** ["gauge"] / ["counter"]. *)

type tier = {
  resolution : float;  (** bucket width, seconds *)
  slots : int;  (** ring length; retention = [resolution *. slots] *)
}

type t

val create : ?tiers:tier list -> unit -> t
(** [tiers] (default: 1 s x 120, 10 s x 180 and 60 s x 240, 25 920
    bytes of ring per series) must be ordered finest first with
    strictly increasing resolutions and non-decreasing retentions.  The
    annotation ring holds the newest 256 annotations.
    @raise Invalid_argument on an empty/ill-ordered tier list, or a
    non-positive resolution or slot count. *)

type series
(** A handle into one named series — intern once, observe on the hot
    path. *)

val series : t -> kind:kind -> string -> series
(** Intern (or retrieve) the series registered under a name.  Two calls
    with the same name return the same rings.
    @raise Invalid_argument when re-interning a name with a different
    kind. *)

val observe : t -> series -> time:float -> float -> unit
(** Fold one observation into every tier's ring.  Allocation-free.
    Negative times are clamped to [0.]; NaN values are dropped. *)

val snapshot : t -> Telemetry.t -> time:float -> unit
(** Fold a whole registry into the store at [time]: every exported
    counter as a {!Counter} series, every gauge as a {!Gauge} series,
    and per histogram a [<name>.count] counter plus [<name>.p50] and
    [<name>.p99] gauges (once it has samples).  The serve loop's
    snapshotter. *)

val names : t -> (string * kind) list
(** Every interned series, sorted by name. *)

val series_count : t -> int

val last_time : t -> float
(** The largest observation time seen so far ([0.] when empty) — the
    store's notion of "now" for retention decisions. *)

val memory_bytes : t -> int
(** The store's fixed ring footprint in bytes:
    [series_count * per_series] where [per_series] is
    [sum over tiers of slots * 6 * 8] (four float aggregates, one float
    count, one int epoch word per slot).  This is the documented memory
    bound of the retention store — it does not grow with run length,
    only with the number of interned series. *)

val per_series_bytes : t -> int
(** The [per_series] term of {!memory_bytes}. *)

(** {1 Range queries} *)

type point = {
  p_count : int;  (** observations aggregated into this bucket *)
  p_sum : float;
  p_min : float;
  p_max : float;
  p_last : float;  (** most recent sample (gauge) / increment (counter) *)
}

type range = {
  r_name : string;
  r_kind : kind;
  r_start : float;  (** aligned down to a [r_step] boundary *)
  r_step : float;  (** actual step: a multiple of the chosen tier's
                       resolution, >= the requested step *)
  r_points : point option array;
      (** bucket [i] covers [r_start +. float i *. r_step,
          r_start +. float (i+1) *. r_step); [None] where no live data *)
}

val max_points : int
(** Hard cap on [Array.length r_points] ([512]); a wider request gets a
    coarser step, never a longer answer. *)

val query :
  t -> name:string -> start:float -> stop:float -> ?step:float -> unit ->
  range option
(** Downsample one series over [[start, stop)].  [step] (default: the
    finest tier's resolution) is rounded up to a multiple of the serving
    tier's resolution and widened as needed to respect {!max_points}.
    The serving tier is the finest one whose resolution fits the step
    and whose retention still covers [start]; when no step-fitting tier
    retains that far back, the step widens to the finest tier that does
    (falling back to the deepest-retention tier).  [None] for an unknown series or an empty
    interval.  Alignment invariant: [r_start = floor (start /. r_step)
    *. r_step], and every bucket boundary is a multiple of [r_step]. *)

val pp_sums : Format.formatter -> range -> unit
(** ASCII bar chart of an answer's per-bucket sums, one row per bucket
    labelled with its start time, bars scaled to 40 columns at the peak.
    Rows run from the first to the last non-empty bucket; empty buckets
    inside that span print as 0, and an answer with no data prints
    [(empty)]. *)

(** {1 Annotations} *)

type annotation = {
  a_time : float;
  a_kind : string;  (** e.g. ["health"], ["remediation"], ["drop-spike"] *)
  a_tenant : string option;
  a_detail : string;
}

val annotate :
  t -> time:float -> kind:string -> ?tenant:string -> detail:string -> unit ->
  unit
(** Append one incident; once the ring is full the oldest entry is
    overwritten. *)

val annotations : ?start:float -> ?stop:float -> t -> annotation list
(** Annotations with [start <= a_time < stop] (defaults: everything
    retained), sorted by time (stable for equal stamps) even when they
    were recorded out of order. *)

val annotations_total : t -> int
(** Annotations ever recorded (including overwritten ones). *)
