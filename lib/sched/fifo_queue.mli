(** Tail-drop FIFO — the baseline "conventional scheduler" of the paper's
    evaluation (Fig. 4, "FIFO: pFabric and EDF"). *)

val create : capacity_pkts:int -> unit -> Qdisc.t
(** A FIFO named ["fifo"] holding at most [capacity_pkts] packets; an
    arrival to a full queue is dropped (tail drop).
    @raise Invalid_argument if [capacity_pkts <= 0]. *)
