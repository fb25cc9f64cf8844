(** Packet-lineage forensics over NDJSON event streams.

    The {!Telemetry} trace sink and {!Recorder} flight-recorder dumps
    both write {!Recorder.event_to_json}'s line.  This module loads those
    files back through {!Recorder.event_of_json} and reconstructs
    per-packet journeys — the stage-by-stage rank story of a flow or
    packet — for the [qvisor-cli trace query] subcommand and for tests.
    A negative field means unknown, as in {!Recorder.event}. *)

val load_file : string -> (Recorder.event list, string) result
(** Parse an NDJSON file, skipping blank lines; errors (unparsable JSON,
    an unknown ["ev"], a non-integer field) carry the offending line
    number.  Events keep file order. *)

val matches : ?uid:int -> ?flow:int -> ?tenant:int -> Recorder.event -> bool
(** Conjunction of the given filters; an event missing a filtered field
    does not match.  With no filters every event matches. *)

val lineage :
  ?uid:int -> ?flow:int -> ?tenant:int -> Recorder.event list ->
  Recorder.event list
(** Filter, then order by packet (events without a uid last) and, within
    a packet, by time — stably, so same-timestamp stages keep their
    recorded order (preprocess before enqueue). *)

val pp_event : Format.formatter -> Recorder.event -> unit

val pp_lineage : Format.formatter -> Recorder.event list -> unit
(** Group by packet uid and print each packet's journey:
    {v
    packet uid=12 (tenant 3, flow 5): 3 events
      t=0.000135  preprocess   link=4  rank 17 -> 42
      t=0.000135  enqueue      link=4  rank=42
      t=0.000481  dequeue      link=4  rank=42
    v} *)
