(** Client-side rendering for [qvisor-cli top] and [qvisor-cli report].

    Everything here is pure: decode a [GET /query] reply ({!Server.query_body})
    into {!data}, then render a dashboard frame ({!render_top}) or an
    incident post-mortem ({!render_report}) as plain strings.  The only
    I/O is {!fetch}, a thin wrapper over {!Http.get}.  Keeping the
    renderers pure lets the test suite assert on frames without a
    terminal. *)

type point = {
  count : int;
  sum : float;
  min : float;
  max : float;
  last : float;
}

type series = {
  name : string;
  kind : string;  (** ["gauge"] | ["counter"] *)
  tenant : string option;
  start : float;
  step : float;
  points : point option array;
}

type annotation = {
  a_time : float;
  a_kind : string;
  a_tenant : string option;
  a_detail : string;
}

type tenant = {
  id : int;
  name : string;
  algorithm : string;
  health : string;  (** ["healthy"] | ["degraded"] | ["violating"] *)
}

type data = {
  now : float;
  sim_time : float;
  uptime_seconds : float;
  window_start : float;
  window_stop : float;
  series_count : int;
  memory_bytes : int;
  per_series_bytes : int;
  tenants : tenant list;
  series : series list;
  annotations : annotation list;
}

val data_of_body : string -> (data, string) result
(** Parse + decode one [/query] response body. *)

val fetch :
  ?host:string -> port:int -> query:string -> unit -> (data, string) result
(** [GET /query?<query>] against a running daemon and decode the body.
    [query] is the already-encoded query string (may be [""]). *)

val find_series : data -> string -> series option

val render_top : ?color:bool -> data -> string
(** One dashboard frame: a header line (sim time, uptime, series count,
    fixed memory bound), a per-tenant table — health badge, throughput
    (pkt/s), drops (pkt/s), delay p99, fast-burn — each with a
    sparkline over the queried window — and the most recent annotations.
    Ends with a newline. *)

val render_report : ?top_n:int -> data -> string
(** Incident post-mortem over the queried window: for every annotation,
    the before/after deltas of each series that moved — bucket means
    over up to 5 buckets on each side of the incident — ranked by
    symmetric relative change, keeping the [top_n] (default [10])
    largest movers.  A window with no annotations says so explicitly. *)
