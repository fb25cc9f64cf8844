type t = {
  name : string;
  enqueue_drop : Packet.t -> (Packet.t -> unit) -> unit;
  enqueue : Packet.t -> Packet.t list;
  dequeue : unit -> Packet.t option;
  peek : unit -> Packet.t option;
  length : unit -> int;
  bytes : unit -> int;
  drops : unit -> int;
}

let make ~name ~enqueue_drop ~dequeue ~peek ~length ~bytes ~drops =
  let enqueue p =
    let dropped = ref [] in
    enqueue_drop p (fun d -> dropped := d :: !dropped);
    List.rev !dropped
  in
  { name; enqueue_drop; enqueue; dequeue; peek; length; bytes; drops }

let accepted _q p dropped = not (List.exists (fun d -> d.Packet.uid = p.Packet.uid) dropped)

let drain q =
  let rec loop acc =
    match q.dequeue () with None -> List.rev acc | Some p -> loop (p :: acc)
  in
  loop []
