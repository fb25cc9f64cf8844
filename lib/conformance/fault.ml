type t = Lifo_ties | Drop_newest

let all = [ Lifo_ties; Drop_newest ]

let to_string = function
  | Lifo_ties -> "lifo-ties"
  | Drop_newest -> "drop-newest"

let of_string = function
  | "lifo-ties" -> Ok Lifo_ties
  | "drop-newest" -> Ok Drop_newest
  | s ->
    Error
      (Printf.sprintf "unknown fault %S (expected %s)" s
         (String.concat " | " (List.map to_string all)))

(* A PIFO over an explicit (rank, uid) key, so each fault is a one-line
   deviation from an exact PIFO.  Keying on uid is itself off-contract
   (ties go by port arrival), which the shuffled uids of a conformance
   replay expose on top of each fault. *)
module Key = struct
  type t = int * int

  let compare = compare
end

module PMap = Map.Make (Key)

let qdisc fault ~capacity_pkts =
  if capacity_pkts <= 0 then invalid_arg "Fault.qdisc: capacity <= 0";
  let key (p : Sched.Packet.t) =
    match fault with
    | Lifo_ties -> (p.Sched.Packet.rank, -p.Sched.Packet.uid)
    | Drop_newest -> (p.Sched.Packet.rank, p.Sched.Packet.uid)
  in
  let store = ref PMap.empty in
  let count = ref 0 in
  let bytes = ref 0 in
  let drops = ref 0 in
  let insert p =
    store := PMap.add (key p) p !store;
    incr count;
    bytes := !bytes + p.Sched.Packet.size
  in
  let remove k (p : Sched.Packet.t) =
    store := PMap.remove k !store;
    decr count;
    bytes := !bytes - p.Sched.Packet.size
  in
  let enqueue_drop (p : Sched.Packet.t) on_drop =
    if !count < capacity_pkts then insert p
    else begin
      match fault with
      | Drop_newest ->
        incr drops;
        on_drop p
      | Lifo_ties ->
        let worst_key, worst = PMap.max_binding !store in
        if p.Sched.Packet.rank >= worst.Sched.Packet.rank then begin
          incr drops;
          on_drop p
        end
        else begin
          remove worst_key worst;
          insert p;
          incr drops;
          on_drop worst
        end
    end
  in
  let dequeue () =
    match PMap.min_binding_opt !store with
    | None -> None
    | Some (k, p) ->
      remove k p;
      Some p
  in
  Sched.Qdisc.make
    ~name:("fault:" ^ to_string fault)
    ~enqueue_drop ~dequeue
    ~peek:(fun () -> Option.map snd (PMap.min_binding_opt !store))
    ~length:(fun () -> !count)
    ~bytes:(fun () -> !bytes)
    ~drops:(fun () -> !drops)
