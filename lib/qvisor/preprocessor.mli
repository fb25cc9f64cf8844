(** The data-plane pre-processor (§3.3).

    For each incoming packet it reads the two labels (tenant id, rank),
    looks up the tenant's transformation from the synthesized plan, rewrites
    the rank, and hands the packet on to the hardware scheduler.  The
    lookup table is a dense array indexed by tenant id — a match-action
    table in the hardware realization — so the per-packet cost is O(depth
    of the transformation), independent of tenant count. *)

type t

val of_plan :
  ?profiler:Engine.Span.t -> ?telemetry:Engine.Telemetry.t ->
  ?on_rank_error:(int -> float -> unit) ->
  ?rank_error_sample:int ->
  Synthesizer.plan -> t
(** Compile a plan into a line-rate lookup table.  [profiler] (default:
    off) wraps the compilation in a ["preprocessor.compile"] span (the
    per-packet path is deliberately not spanned — it is the hot path the
    flight recorder covers instead).

    With [telemetry], every processed packet also feeds three metrics:
    [preprocessor.table_hits] / [preprocessor.fallback_hits] count
    match-table entry vs fallback lookups, and [preprocessor.rank_error]
    is the live distribution of [|applied - ideal|] where {e ideal} is the
    unquantized real-valued transformation ({!Transform.apply_exact}).

    [on_rank_error] (default: none) receives such [(tenant_id, error)]
    samples as they are computed — the SLO auditor's tap.  With
    [telemetry] it sees every packet (the histograms are exact anyway);
    without, only every [rank_error_sample]-th processed packet is
    audited (default [1], i.e. all), keeping the exact-error float
    recomputation off the per-packet hot path.  Plan distortion is
    systematic — every packet of a tenant shares the same transform — so
    a sampled maximum converges on the true one almost immediately.
    @raise Invalid_argument when [rank_error_sample <= 0]. *)

val process : t -> Sched.Packet.t -> unit
(** Compute the packet's scheduling rank from its (immutable) tenant
    label and store it in [rank].  Because the input is the label, the
    operation is idempotent — safe to install on every hop of a multi-hop
    QVISOR deployment. *)

val process_conditioned :
  t -> conditioning:Transform.t -> Sched.Packet.t -> unit
(** Like {!process} but applies [conditioning] to the label first — the
    hook the adversarial-workload guard uses to clamp or park offenders
    without touching the synthesized plan. *)

val processed : t -> int
(** Packets processed so far. *)

val per_tenant : t -> (int * int) list
(** [(tenant_id, packets)] counts for tenants seen, including unknown
    tenants handled by the fallback (reported with their own id). *)

val plan : t -> Synthesizer.plan

val swap_plan : t -> Synthesizer.plan -> unit
(** Atomically replace the transformation table — the runtime controller's
    re-deployment path.  Counters are preserved. *)
