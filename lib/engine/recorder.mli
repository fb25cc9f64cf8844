(** Always-on flight recorder: a fixed-size ring buffer of recent
    packet-level events.

    Aggregate telemetry ({!Telemetry}) averages transient behavior away;
    the recorder is the complementary layer beneath it, answering "what
    happened to the packets {e just before} things went wrong".  Recording
    an event is a handful of array stores — cheap enough to leave enabled
    on every port — and the buffer silently overwrites its oldest entries,
    so memory is constant regardless of run length.

    On an {e anomaly} (a drop-rate spike detected by {!Trigger}, a guard
    violation, or a conformance divergence) the caller dumps the last-N
    events as NDJSON ({!dump}), giving every failure a causal packet
    history next to its reproducer.

    {!event} is the one packet-event row: the {!Telemetry} trace sink
    writes the same line, and {!Lineage} reads both back through
    {!event_of_json}.  Line schema (negative fields are omitted):

    {v {"t":1.25e-3,"ev":"enqueue","uid":17,"link":4,"tenant":0,"flow":7,"rank":311} v} *)

type kind = Enqueue | Dequeue | Drop | Evict | Preprocess

val kind_to_string : kind -> string
(** ["enqueue"], ["dequeue"], ["drop"], ["evict"], ["preprocess"]: the
    line's ["ev"] field. *)

type event = {
  time : float;
  kind : kind;
  uid : int;  (** packet uid (or scenario sid); [-1] when unknown *)
  link : int;  (** port/link id; [-1] when not applicable *)
  tenant : int;  (** [-1] when unknown *)
  flow : int;  (** [-1] when unknown *)
  rank_before : int;  (** pre-transform rank; [-1] except on [Preprocess] *)
  rank : int;  (** rank as scheduled; [-1] when unknown *)
}

type t

val create : ?capacity:int -> unit -> t
(** A fresh ring holding the last [capacity] events (default [512]).
    @raise Invalid_argument when [capacity < 1]. *)

val disabled : t
(** The shared no-op recorder: {!record} does nothing, the ring stays
    empty.  Callers hold an unconditional [t] and never branch. *)

val is_enabled : t -> bool

val capacity : t -> int
(** [0] for {!disabled}. *)

val length : t -> int
(** Events currently held, [<= capacity]. *)

val seen : t -> int
(** Events offered since creation, including overwritten ones. *)

val record :
  t ->
  time:float ->
  kind:kind ->
  uid:int ->
  link:int ->
  tenant:int ->
  flow:int ->
  rank_before:int ->
  rank:int ->
  unit
(** Append one event, overwriting the oldest once full.  Takes scalar
    fields rather than an {!event} so the hot path allocates nothing —
    the ring stores plain unboxed columns.  Pass [-1] for fields that do
    not apply (see {!event} for their meaning). *)

val to_list : t -> event list
(** Held events, oldest first. *)

val event_to_json : event -> Json.t
(** The event's NDJSON line, fields in schema order. *)

val event_of_json : Json.t -> (event, string) result
(** The inverse of {!event_to_json}: requires a numeric ["t"] and an
    ["ev"] naming one of the five kinds; an absent field reads [-1], and
    a present one must be an integer. *)

val dump : t -> out_channel -> unit
(** Write the held events as NDJSON, oldest first, and flush.  The
    channel stays owned by the caller. *)

(** {1 Anomaly trigger}

    A sliding-window drop-rate detector with hysteresis.  Feed it one
    observation per enqueue attempt; it fires when the drop fraction over
    the last [window] attempts reaches [threshold], then stays silent for
    the next [cooldown] attempts so a sustained incident produces one
    dump, not a storm. *)

module Trigger : sig
  type t

  val create :
    ?window:int -> ?threshold:float -> ?cooldown:int -> unit -> t
  (** [window] (default [128]) attempts per sliding window; [threshold]
      (default [0.5]) is the firing drop fraction; [cooldown] (default
      [window]) attempts suppressed after a fire.  The trigger will not
      fire before a full window of observations has accumulated.
      @raise Invalid_argument when [window < 1], [cooldown < 0], or
      [threshold] is outside [(0, 1]]. *)

  val observe : t -> dropped:bool -> bool
  (** Record one enqueue outcome; [true] means "fire: dump now". *)

  val force : t -> bool
  (** An externally detected anomaly (guard violation, conformance
      divergence).  Returns [true] — and arms the cooldown — unless the
      cooldown is still running. *)

  val fired : t -> int
  (** Times the trigger has fired so far. *)
end
