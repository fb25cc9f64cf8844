type t = {
  topo : Topology.t;
  (* candidates.(node).(dst_host): links on shortest paths towards dst. *)
  candidates : Topology.link array array array;
}

(* Deterministic splitmix-style mix for per-flow ECMP hashing: must differ
   across nodes so consecutive hops don't all make the same choice.  Native
   int arithmetic (wrapping mod 2^63) — an Int64 version boxes three
   intermediates per routed packet. *)
let hash_flow ~node ~flow =
  let z = (flow * 0x9E3779B9) lxor (node * 0x85EBCA6B) in
  let z = (z lxor (z lsr 30)) * 0x2545F4914F6CDD1D in
  let z = z lxor (z lsr 27) in
  (z lsr 8) land max_int

let compute topo =
  let n = Topology.num_nodes topo in
  let num_hosts = Topology.num_hosts topo in
  (* Reverse adjacency for BFS from each destination. *)
  let incoming = Array.make n [] in
  for id = 0 to Topology.num_links topo - 1 do
    let l = Topology.link topo id in
    incoming.(l.Topology.dst) <- l :: incoming.(l.Topology.dst)
  done;
  let candidates =
    Array.init n (fun _ -> Array.make num_hosts [||])
  in
  let dist = Array.make n max_int in
  for dst = 0 to num_hosts - 1 do
    Array.fill dist 0 n max_int;
    dist.(dst) <- 0;
    let queue = Queue.create () in
    Queue.push dst queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      List.iter
        (fun l ->
          let u = l.Topology.src in
          if dist.(u) = max_int then begin
            dist.(u) <- dist.(v) + 1;
            Queue.push u queue
          end)
        incoming.(v)
    done;
    for node = 0 to n - 1 do
      if node <> dst && dist.(node) <> max_int then begin
        let outs =
          List.filter
            (fun l ->
              dist.(l.Topology.dst) <> max_int
              && dist.(l.Topology.dst) = dist.(node) - 1)
            (Topology.links_from topo node)
        in
        candidates.(node).(dst) <- Array.of_list outs
      end
    done
  done;
  { topo; candidates }

let candidates t ~node ~dst =
  if dst < 0 || dst >= Topology.num_hosts t.topo then
    invalid_arg "Routing.candidates: dst is not a host";
  Array.to_list t.candidates.(node).(dst)

let[@inline] next_link t ~node ~dst ~flow =
  if dst < 0 || dst >= Topology.num_hosts t.topo then
    invalid_arg "Routing.next_link: dst is not a host";
  if node = dst then invalid_arg "Routing.next_link: already at destination";
  let cands = t.candidates.(node).(dst) in
  let n = Array.length cands in
  if n = 0 then invalid_arg "Routing.next_link: destination unreachable";
  cands.(hash_flow ~node ~flow mod n)

let path t ~src ~dst ~flow =
  let rec walk node acc =
    if node = dst then List.rev (dst :: acc)
    else begin
      let l = next_link t ~node ~dst ~flow in
      walk l.Topology.dst (node :: acc)
    end
  in
  walk src []
