(* A ring of [capacity_pkts] cells, allocated at the first enqueue with
   that packet in every cell; the extra last cell keeps it as the blank
   a dequeued cell is reset to, so a drained queue holds no packets
   (allocating a dummy Packet.t would perturb the uid stream). *)
let create ~capacity_pkts () =
  if capacity_pkts <= 0 then invalid_arg "Fifo_queue.create: capacity <= 0";
  let ring = ref [||] in
  let head = ref 0 in
  let len = ref 0 in
  let bytes = ref 0 in
  let drops = ref 0 in
  let enqueue_drop p on_drop =
    if !len >= capacity_pkts then begin
      incr drops;
      on_drop p
    end
    else begin
      if Array.length !ring = 0 then ring := Array.make (capacity_pkts + 1) p;
      let i = !head + !len in
      Array.unsafe_set !ring (if i >= capacity_pkts then i - capacity_pkts else i) p;
      incr len;
      bytes := !bytes + p.Packet.size
    end
  in
  let dequeue () =
    if !len = 0 then None
    else begin
      let ring = !ring and i = !head in
      let p = Array.unsafe_get ring i in
      Array.unsafe_set ring i (Array.unsafe_get ring capacity_pkts);
      head := if i + 1 = capacity_pkts then 0 else i + 1;
      decr len;
      bytes := !bytes - p.Packet.size;
      Some p
    end
  in
  let peek () = if !len = 0 then None else Some (Array.unsafe_get !ring !head) in
  Qdisc.make ~name:"fifo" ~enqueue_drop ~dequeue ~peek
    ~length:(fun () -> !len)
    ~bytes:(fun () -> !bytes)
    ~drops:(fun () -> !drops)
