(** Prometheus text exposition of a {!Telemetry} registry.

    The bridge between the repro's dotted metric names and the flat
    name-plus-labels model scrapers expect.  A dotted name is mapped by
    one rule: {e a purely numeric path component becomes a label keyed by
    the component before it}.  So

    {v net.port.3.enqueue   ->  qvisor_net_port_enqueue_total{port="3"}
       net.tenant.0.drop    ->  qvisor_net_tenant_drop_total{tenant="pfabric"}
       preprocessor.rank_error -> qvisor_preprocessor_rank_error  (summary) v}

    where the [tenant] label is resolved through the optional
    [tenant_names] map.  Counters get the conventional [_total] suffix;
    histograms render as Prometheus {e summaries}: one [quantile] sample
    each for 0.5, 0.9 and 0.99, plus [_sum]/[_count].

    Names are sanitized, never trusted: any character outside
    [[a-zA-Z0-9_:]] becomes [_], and a leading digit is prefixed with
    [_].  Label values are escaped per the format (backslash,
    double-quote, newline).  {!family} rejects (raises) names that are still invalid after that —
    the render side can only emit lines the strict {!parse} accepts.

    {!parse}/{!parse_line} implement a deliberately strict reader used by
    the tests and [qvisor-cli metrics --validate]: every sample must
    belong to a previously declared [# TYPE] family, label syntax is
    exact (no stray spaces), and {!render_line} is canonical, so
    [render_line (parse_line l)] round-trips every line this module
    emits. *)

type mtype = Counter | Gauge | Summary

type sample = {
  sample_name : string;  (** full sample name, e.g. [foo_sum] *)
  labels : (string * string) list;  (** raw (unescaped) label pairs *)
  value : float;
}

type family = {
  family_name : string;
  help : string;
  mtype : mtype;
  samples : sample list;
}

val sanitize_name : string -> string
(** Map an arbitrary string to a valid Prometheus metric-name fragment:
    invalid characters become [_], a leading digit gains a [_] prefix,
    and the empty string becomes ["_"]. *)

val escape_label_value : string -> string
(** Escape backslash, double-quote and newline for use inside a
    [label="value"] pair. *)

val family :
  name:string -> help:string -> mtype -> sample list -> family
(** Build a family after validating [name] and every sample name against
    the metric-name grammar ([[a-zA-Z_:][a-zA-Z0-9_:]*]) and every label
    name against [[a-zA-Z_][a-zA-Z0-9_]*].  Use {!sanitize_name} first
    when the name comes from outside.
    @raise Invalid_argument on any invalid identifier. *)

val families_of_registry :
  ?tenant_names:(int * string) list ->
  Telemetry.t ->
  family list
(** Every metric of the registry as exposition families, sorted by family
    name and prefixed [qvisor_].  [tenant_names] maps the numeric component after a [tenant] path
    element to a human name.  Counters become [counter] families
    ([_total] suffix), gauges become [gauge] families, histograms become
    [summary] families.  Dotted names that collapse to
    the same family (e.g. [net.port.0.drop] / [net.port.1.drop]) merge
    into one family with one labelled sample each.  The disabled registry
    yields [[]]. *)

val render_families : family list -> string
(** The families as exposition text: one [# HELP] and [# TYPE] line then
    the samples of each family, preceded by a single
    ["# qvisor text exposition"] comment header and terminated by an
    [# EOF] line (so even an empty list renders a parseable, non-empty,
    visibly-complete document — a truncated scrape is detectable). *)

val scrape_timestamp_family : unit -> family
(** A one-sample gauge family [qvisor_scrape_timestamp_seconds]
    carrying [Unix.gettimeofday ()] clamped to be
    monotonically non-decreasing across the whole process, so consecutive
    scrapes can be ordered even through wall-clock steps. *)

val render : ?tenant_names:(int * string) list -> Telemetry.t -> string
(** [render_families (families_of_registry tel @ [stamp])], with a
    {!scrape_timestamp_family} last. *)

(** {1 Strict parser (tests / [--validate])} *)

type line =
  | Help of { name : string; text : string }
  | Type of { name : string; mtype : mtype }
  | Sample of sample
  | Comment of string  (** text after [#], verbatim *)
  | Blank

val parse_line : string -> (line, string) result
(** Parse one line (without its newline).  [Error] carries a
    human-readable reason. *)

val render_line : line -> string
(** Canonical rendering; inverse of {!parse_line} on every line emitted
    by {!render_families}. *)

val parse : string -> (line list, string) result
(** Parse a whole document and enforce family discipline: every [Sample]
    must name a family declared by a preceding [# TYPE] (directly, or
    via its [_sum]/[_count] suffix for summaries), [quantile] labels may
    only appear on summary samples, duplicate [# TYPE] {e and} duplicate
    [# HELP] declarations are rejected (a repeated family means two
    renders were concatenated), and nothing may follow an [# EOF]
    terminator.  [Error] is prefixed with the 1-based offending line
    number. *)
