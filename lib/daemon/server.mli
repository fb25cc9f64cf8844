(** The `qvisor serve` daemon: a persistent scheduling hypervisor.

    One single-threaded event loop alternates between

    - advancing a continuous netsim simulation (per-tenant Poisson
      traffic through the synthesized plan) by a bounded chunk of events,
      about a millisecond of host work, and
    - polling, with no wait, two listening sockets and their connections:
      the line-oriented JSON control socket ({!Proto}, Unix-domain) and a
      minimal HTTP scrape surface ([GET /metrics], [GET /healthz],
      [GET /query]).

    So a request waits at most one chunk, not a whole slice.  Every
    [slice] of simulated time the loop also ticks SLO auditing, health
    evaluation and auto-remediation, and takes a retention snapshot when
    one is due.  A run with no mutations simulates exactly what one
    {!Engine.Sim.run} per slice would.

    Replies are queued per connection and written as the socket accepts
    them.  A connection with replies still queued is not read again
    until they drain, so a client that stops reading holds back only
    itself.  An HTTP request is read in the same poll that accepts its
    connection, which closes once the response is written.

    Control-plane mutations go through the admission pipeline: validate
    the request, re-synthesize {e off to the side}, and only then swap
    the plan ({!Qvisor.Runtime}'s redeploy is atomic), bumping the epoch.
    A bad policy or an unsatisfiable tenant never takes down the serving
    plan — the requester gets the typed error, everyone else keeps their
    bands.

    When {!Engine.Health} judges a tenant [Violating], {!Remediation}
    decides whether to fire a guarded resynthesis (observed-range refresh
    first, then quantization coarsening), with every attempt appended to
    the NDJSON audit sink. *)

type config = {
  socket_path : string;  (** control socket (unlinked and re-bound) *)
  http_port : int;  (** TCP port on 127.0.0.1; [0] picks an ephemeral one *)
  tenants : Qvisor.Tenant.t list;  (** initial population *)
  policy : Qvisor.Policy.t;
  levels : int option;  (** synthesizer quantization *)
  seed : int;
  load : float;  (** per-tenant offered load on the aggregate access capacity *)
  slice : float;
      (** simulated seconds between health/SLO ticks (and snapshot
          checks); requests are answered between chunks of events, not
          at slice ends *)
  drain_timeout : float;
      (** max simulated seconds to let in-flight flows finish at shutdown *)
  remediation : Remediation.config;
  telemetry : Engine.Telemetry.t;  (** live registry backing [/metrics] *)
  alerts : out_channel option;  (** health-transition NDJSON sink *)
  audit : out_channel option;  (** remediation NDJSON sink *)
  inject_qdisc : (capacity_pkts:int -> Sched.Qdisc.t) option;
      (** fault injection: overrides every port's scheduler (tests / the
          worked EXPERIMENTS session wire {!Conformance.Fault} in here) *)
  pace : bool;
      (** pace the slice loop to the wall clock (1 simulated second per
          real second) instead of free-running; the waiting happens
          inside [select], so the control plane stays responsive *)
  snapshot_interval : float;
      (** simulated seconds between retention-store snapshots of the
          whole registry (default [1.0]) *)
}

val default_config : config
(** The daemon serves {!Experiments.Fig4.quick}'s scenario: its fabric
    (2 leaves x 2 spines x 4 hosts/leaf at 1 Gb/s access), port queues,
    rank units ({!Experiments.Fig4.ranker}) and, by default, its two
    tenants ({!Experiments.Fig4.qvisor_tenants}) under
    ["edf >> pfabric"], audited by {!Qvisor.Audit} as [Fig4.run] audits
    them.  [socket_path = "qvisor.sock"], ephemeral HTTP port, 10 ms
    slices, [load = 0.3], telemetry enabled. *)

val max_pending_bytes : int
(** Unanswered input one connection may buffer (64 KiB).  A control
    client whose line, or an HTTP client whose request head, grows past
    it gets a [config] error line or a [400] and is closed. *)

type t

val create : config -> (t, Qvisor.Error.t) result
(** Synthesize the initial plan, build the fabric, bind both sockets.
    No traffic runs and no request is served until {!serve}. *)

val serve : t -> unit
(** Run the event loop until a [shutdown] request or {!stop}, which take
    effect within one chunk of events (the slice in progress is cut short
    and not ticked).  Then (for up to [drain_timeout] simulated seconds)
    lets in-flight flows finish, makes one last attempt to write queued
    replies, closes and unlinks the sockets and flushes the sinks.
    Ignores [SIGPIPE] for the process, so a client that hangs up before
    its replies are written costs only its connection. *)

val stop : t -> unit
(** Request the loop to exit; safe to call from a signal handler or
    another thread. *)

val http_port : t -> int
(** The actually bound scrape port (resolves an ephemeral request). *)

val socket_path : t -> string
(** The control socket path the daemon bound. *)

val epoch : t -> int

val handle_request : t -> Proto.request -> Proto.outcome
(** The control-plane dispatcher, exposed for unit tests: exactly what a
    socket line goes through, minus the socket. *)

val metrics_body : t -> string
(** The [/metrics] document: registry families filtered to {e active}
    tenants (a removed tenant's families disappear even though its
    counters persist in the registry), daemon gauges
    ([qvisor_epoch], [qvisor_daemon_draining],
    [qvisor_remediations_total]), and the scrape timestamp. *)

val query_body :
  t -> (string * string) list -> (string, string) result
(** The [GET /query] JSON document for decoded query parameters:

    - [series]: a [*]-wildcard pattern over retention-store names
      (default [*]);
    - [tenant]: restrict to series carrying that tenant's id (the
      tenant is named, e.g. [tenant=pfabric]);
    - [start], [end]: simulated seconds; values [<= 0] are relative to
      the newest sample (defaults: the last 60 s);
    - [step]: requested bucket width in seconds (the effective step may
      be coarser — see {!Engine.Tsdb.query}).

    The reply carries [now]/[sim_time]/[uptime_seconds], the fixed
    memory bound ([memory_bytes], [per_series_bytes]), the live tenant
    table with health states, one object per selected series (points as
    [[count,sum,min,max,last]] or [null]), and the annotations that fall
    inside the window.  [Error] is a client error (bad parameter). *)

val snapshot : t -> unit
(** Fold one sample of the whole live registry into the retention store
    (what the serve loop does every [snapshot_interval]); exposed for
    tests and the snapshot-overhead benchmark. *)

val tsdb : t -> Engine.Tsdb.t
(** The daemon's retention store. *)

val sim_time : t -> float
