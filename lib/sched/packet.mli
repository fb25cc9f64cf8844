(** Packets as seen by schedulers and the network simulator.

    A packet carries the two labels QVISOR requires — the tenant identifier
    and the rank (§3.1 of the paper) — plus the flow metadata the rank
    functions need (remaining flow bytes for pFabric/SRPT, absolute deadline
    for EDF) and bookkeeping for the simulator (ids, size, timestamps). *)

type kind = Data | Ack

type t = {
  uid : int;  (** globally unique packet id *)
  kind : kind;  (** payload-bearing data packet or acknowledgement *)
  flow : int;  (** flow identifier *)
  tenant : int;  (** tenant identifier (0-based) *)
  src : int;  (** source host id *)
  dst : int;  (** destination host id *)
  size : int;  (** wire size in bytes, headers included *)
  seq : int;  (** byte offset of this packet's payload within the flow *)
  payload : int;  (** payload bytes *)
  remaining : int;
      (** bytes remaining in the flow when this packet was sent (including
          this packet) — the pFabric rank input *)
  deadline : float;
      (** absolute deadline in seconds ([infinity] when the flow has none)
          — the EDF rank input *)
  created_at : float;  (** send timestamp at the source host *)
  mutable label : int;
      (** the tenant's {e rank label} — written once by the tenant's rank
          function at the end host and carried unchanged through the
          network (§3.1's packet label) *)
  mutable rank : int;
      (** the {e scheduling} rank the queue disciplines order by;
          initially the label, rewritten (from the label, idempotently)
          by QVISOR's pre-processor at each QVISOR hop *)
  mutable enqueued_at : float;  (** last enqueue timestamp (for latency) *)
}

val make :
  ?kind:kind ->
  ?tenant:int ->
  ?src:int ->
  ?dst:int ->
  ?seq:int ->
  ?payload:int ->
  ?remaining:int ->
  ?deadline:float ->
  ?created_at:float ->
  ?rank:int ->
  flow:int ->
  size:int ->
  unit ->
  t
(** Create a packet with a fresh [uid].  [kind] defaults to [Data],
    [payload] to [size - header_bytes] (clamped at 0), [remaining] to
    [payload], [deadline] to [infinity], other fields to 0.  [rank]
    initializes both the label and the scheduling rank. *)

val header_bytes : int
(** Fixed per-packet header overhead (Ethernet+IP+TCP ≈ 58 bytes, the
    value Netbench uses). *)

val reset_uid_counter : int -> unit
(** [reset_uid_counter start]: the calling domain's next packet gets uid
    [start + 1].  The counter is domain-local, so a simulation that
    resets it first numbers its packets the same whatever ran before it
    on that domain, which keeps traces independent of the worker
    count. *)
