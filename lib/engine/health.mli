(** Per-subject health state machine with hysteresis.

    The judgment layer above raw telemetry: each watched subject (a
    tenant, a port, a backend) is evaluated periodically, and each
    evaluation yields one {!signal} — [Pass], [Warn] or [Breach].  The
    machine folds signals into a strike counter with the same
    damped-ladder hysteresis as {!Guard} and {!Recorder.Trigger}:

    - [Pass] clears one strike;
    - [Warn] adds one strike;
    - [Breach] adds two strikes;

    and the state is derived from the strikes: [Healthy] below two,
    [Degraded] at two or three, [Violating] from four.  Because a single
    [Warn] only reaches one strike and a [Pass] immediately clears it,
    alternating [Pass]/[Warn] windows can never flap the state — a subject has to be {e persistently} dirty
    to move, and persistently clean to recover.

    Every state {e transition} is emitted as one NDJSON line on the
    optional alert sink:

    {v {"t":0.12,"id":0,"name":"pfabric","from":"healthy","to":"degraded",
        "source":"slo","detail":"fast burn 3.2x over drop budget"} v}

    so a long run produces a compact, replayable alert stream rather than
    a log of every evaluation. *)

type state = Healthy | Degraded | Violating

type signal = Pass | Warn | Breach

val state_to_string : state -> string
(** ["healthy"], ["degraded"], ["violating"]. *)

type transition = {
  tr_id : int;
  tr_name : string;
  tr_time : float;
  tr_source : string;
  tr_detail : string;
  tr_from : state;
  tr_to : state;
}
(** One state change, as handed to the [on_transition] callback. *)

type t

val create :
  ?alerts:out_channel ->
  ?on_transition:(transition -> unit) ->
  unit ->
  t
(** A fresh machine.  [alerts] (default: none) receives one NDJSON line
    per state transition; the channel stays owned by the caller and is
    flushed after every line, so a crashing run still leaves its alerts
    behind.  [on_transition] (default: none) is invoked synchronously on
    every transition, before the alert line is written — the daemon uses
    it to annotate its retention store ({!Tsdb}). *)

val watch : t -> id:int -> name:string -> unit
(** Start tracking a subject ([Healthy], zero strikes).  Re-watching an
    id resets it. *)

val unwatch : t -> id:int -> unit
(** Stop tracking a subject (its state and strikes are dropped; no alert
    is emitted).  Unwatching an untracked id is a no-op — the daemon
    calls this when a tenant leaves. *)

val observe :
  t ->
  id:int ->
  time:float ->
  ?source:string ->
  ?detail:string ->
  signal ->
  unit
(** Fold one evaluation into the subject's strikes.  [source] (default
    ["health"]) names the detector that produced the signal ("slo",
    "guard", "recorder"); [detail] is a free-text explanation.  Both are
    carried on the alert line if this observation causes a transition.
    Observing an unwatched id is a no-op (mirrors {!Guard.observe}). *)

val state : t -> id:int -> state
(** [Healthy] for unwatched ids. *)

val states : t -> (int * string * state) list
(** Every watched subject, sorted by id. *)

val worst : t -> state
(** The most severe state over all watched subjects ([Healthy] when none
    are watched) — the run's overall pass/fail verdict. *)

val alerts_emitted : t -> int
(** State transitions so far (counted whether or not a sink is
    attached). *)
