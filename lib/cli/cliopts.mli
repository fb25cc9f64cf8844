(** Command-line plumbing shared by the qvisor executables: converters,
    the instrument flags ([--jobs], [--telemetry], [--trace],
    [--trace-sample], [--profile], [--metrics-out]), the instrumented-run
    fan-out {!Run}, and graceful shutdown.

    Converters reject out-of-range and non-finite values at parse time,
    as a Cmdliner usage error (exit 124), e.g.:

    {v qvisor-experiments: option '--trace-sample': expected a
       probability within [0,1], got 'nan' v} *)

val pos_int : int Cmdliner.Arg.conv
(** A strictly positive integer ([>= 1]). *)

val pos_float : float Cmdliner.Arg.conv
(** A strictly positive, finite number ([> 0]). *)

val probability : float Cmdliner.Arg.conv
(** A finite number [p] with [0 <= p <= 1]; [nan] and [inf] are
    rejected. *)

val duration : float Cmdliner.Arg.conv
(** A strictly positive duration in seconds, accepting the suffixes
    [ms], [s] and [m] — ["500ms"], ["2s"], ["1.5m"] — or a bare number
    of seconds for backward compatibility.  Used by
    [--metrics-interval], [--remediation-cooldown] and
    [--drain-timeout]. *)

val duration_of_string : string -> (float, string) result
(** The parsing half of {!duration}, usable outside [Cmdliner]. *)

(** {1 Shared flags} *)

val jobs : int Cmdliner.Term.t
(** [--jobs N] / [-j N], default {!Engine.Parallel.default_jobs},
    floored at 1. *)

val profile : string option Cmdliner.Term.t
(** [--profile FILE]. *)

val metrics_out : doc:string -> string option Cmdliner.Term.t
(** [--metrics-out FILE], documented by the command. *)

type instruments = {
  telemetry : bool;  (** [--telemetry]: print the snapshot at the end *)
  trace : string option;  (** [--trace FILE] *)
  trace_sample : float;  (** [--trace-sample RATE] *)
  profile : string option;  (** [--profile FILE] *)
  metrics_out : string option;  (** [--metrics-out FILE] *)
}

val no_instruments : instruments

val instruments :
  telemetry_doc:string ->
  trace_doc:string ->
  ?metrics_out_doc:string ->
  unit ->
  instruments Cmdliner.Term.t
(** [--telemetry], [--trace], [--trace-sample] (through {!probability}),
    [--profile] and, only when [metrics_out_doc] is given,
    [--metrics-out]. *)

(** {1 Instrumented runs}

    A run owns the "same output at any [--jobs]" contract: each part of
    a parallel run gets a private registry, trace sink and profiler, and
    {!finish} merges them back in part order. *)

module Run : sig
  type t

  type part = { registry : Engine.Telemetry.t; profiler : Engine.Span.t }

  val create :
    ?registry:bool ->
    ?tenant_names:(int * string) list ->
    ?seed:int ->
    instruments ->
    (t, string) result
  (** Start a run.  The final [--trace] file is opened here, before any
      work, so an unwritable path is an [Error].  The root registry
      exists under [--telemetry], [--trace], [--metrics-out] or
      [registry]; the final sink is attached to it with [seed] (default
      0), so a single-registry run traces into it directly.  Part trace
      files are deleted at exit, including an exit through the
      SIGINT/SIGTERM handler this installs, which runs the
      {!at_signal_exit} cleanups and exits with
      {!exit_status_of_signal}.
      [tenant_names] label the exposition. *)

  val registry : t -> Engine.Telemetry.t
  (** The root registry; {!Engine.Telemetry.disabled} when no flag asks
      for one.  Runs with no parts report it unmerged. *)

  val profiler : t -> Engine.Span.t

  val parts : t -> seeds:int list -> part list
  (** One part per seed: a private registry (disabled when the root is)
      whose trace sink, under [--trace], is a temp file sampled with that
      seed, and a private profiler. *)

  val profilers : t -> int -> Engine.Span.t list
  (** [n] parts with a private profiler and no registry, for runs whose
      registry is not split. *)

  val finish : t -> Engine.Json.t option
  (** Merge every part into the root in creation order: registries with
      {!Engine.Telemetry.merge_into}, trace files by concatenation, and
      profilers with {!Engine.Span.merge_into} under [tid] = position + 1.
      Then write [--metrics-out] atomically, close the trace, print the
      snapshot under [--telemetry] and write [--profile].  Returns the
      snapshot, taken with the trace counts, when the run has a
      registry.  Exits 1 if an output cannot be written. *)

  val abort : t -> unit
  (** Delete the part trace files unmerged, as an exit does. *)
end

val write_metrics :
  ?tenant_names:(int * string) list -> string -> Engine.Telemetry.t -> unit
(** Write the registry's Prometheus exposition atomically (temp file +
    rename), so a reader never sees a truncated file; exits 1 when the
    file cannot be written. *)

val exit_on_error : ('a, string) result -> 'a
(** The value, or print the error and exit 1. *)

(** {1 Graceful shutdown}

    One-shot CLIs die mid-write when interrupted: a [SIGINT] during
    [experiments single --alerts] can truncate the final NDJSON record.
    These helpers install handlers that run registered cleanups and then
    exit through [Stdlib.exit], so [at_exit]-registered channel flushes
    still happen. *)

val on_signal : (int -> unit) -> unit
(** Install [f] as the handler for [SIGINT] and [SIGTERM].  A signal
    that cannot be trapped on the platform is skipped silently. *)

val at_signal_exit : (unit -> unit) -> unit
(** Register a cleanup (flush a sink, finalize a metrics file) to run —
    LIFO, exceptions swallowed — when the handler that {!Run.create}
    installs fires. *)

val exit_status_of_signal : int -> int
(** The shell's status for a death by [signo]: 128 plus the POSIX number
    ([Sys.sigint] gives 130, [Sys.sigterm] 143) for HUP, INT, QUIT,
    ABRT, KILL, ALRM and TERM; 128 plus [signo] for a positive system
    number; 1 otherwise. *)
