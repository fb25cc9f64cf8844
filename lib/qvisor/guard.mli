(** Adversarial-workload detection (§2, Idea 2).

    A malicious or buggy tenant can attack a shared scheduler in two ways
    that its declared specification does not allow: emitting ranks outside
    its declared range (escaping its band before normalization clamps it,
    or distorting a refresh-from-observation cycle), and flooding the best
    slice of its own range (turning a fair-share band into a strict claim
    on the band's head).  The guard watches the {e raw} ranks of each
    tenant over fixed-size windows, issues verdicts with hysteresis, and
    offers a mitigation transform that conditions the offender's ranks
    before the pre-processor runs.

    Verdict ladder per evaluation window:
    - a clean window clears one strike;
    - a dirty window adds a strike: 1–2 strikes = [Suspicious],
      3 or more = [Malicious]. *)

type reason =
  | Out_of_range of float
      (** byte-weighted fraction of window traffic ranked outside the
          spec *)
  | Top_band_flooding of float
      (** byte-weighted fraction of window traffic ranked inside the best
          decile of the spec.  Byte weighting keeps small control packets
          (acks legitimately ride at a tenant's best rank) from tripping
          the detector. *)

type verdict = Conforming | Suspicious of reason list | Malicious of reason list

type config = {
  window : int;  (** packets per evaluation window (default 256) *)
  out_of_range_threshold : float;  (** dirty when above (default 0.05) *)
  flooding_threshold : float;  (** dirty when above (default 0.5) *)
  flooding_exempt : string list;
      (** algorithms whose {e legitimate} rank distribution concentrates
          at the best ranks, where flooding is indistinguishable from
          normal load by rank inspection alone — size-based (pFabric/SRPT:
          most flows are tiny) and deadline-based (EDF/LSTF: urgency
          clusters) policies.  Default
          [\["pfabric"; "srpt"; "edf"; "lstf"\]].  Progressive policies
          (STFQ, FIFO+, …) whose virtual clocks must keep advancing stay
          subject to the check. *)
}

val default_config : config

type t

val create :
  ?config:config ->
  ?telemetry:Engine.Telemetry.t ->
  ?clock:(unit -> float) ->
  tenants:Tenant.t list ->
  unit ->
  t
(** The watched population is [tenants], fixed here: any other tenant id
    is {!Conforming} and passes unconditioned (the pre-processor's
    fallback already parks undeclared tenants).

    With [telemetry], verdict {e transitions} feed the metrics layer:
    [guard.suspicious] / [guard.malicious] count each entry into the
    respective verdict (re-entry after recovery counts again).  [clock]
    is ignored; it stays only because [perfbench/fig4w.ml] passes it. *)

val observe : t -> Sched.Packet.t -> unit
(** Feed one packet: the guard reads the tenant's immutable rank
    {e label}, so it can run before or after the pre-processor. *)

val verdict : t -> tenant_id:int -> verdict

val mitigation : t -> tenant_id:int -> Transform.t
(** The rank-conditioning transform the data plane should apply to this
    tenant {e before} the plan transform: [Identity] while conforming;
    a clamp into the declared range while suspicious; a collapse onto the
    tenant's very worst declared rank (stopping the attack, as the paper
    suggests) while malicious. *)

val process :
  t -> Preprocessor.t -> Sched.Packet.t -> unit
(** Guarded line-rate path: observe, apply the mitigation, then the
    plan's transformation. *)

val strikes : t -> tenant_id:int -> int
