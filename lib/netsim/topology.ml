type node_kind = Host | Switch

type link = { id : int; src : int; dst : int; rate : float; delay : float }

type t = {
  num_hosts : int;
  num_switches : int;
  links : link Engine.Vec.t;
  outgoing : link list array; (* reversed insertion order, fixed on read *)
}

let create ~num_hosts ~num_switches =
  if num_hosts < 0 || num_switches < 0 then
    invalid_arg "Topology.create: negative node count";
  {
    num_hosts;
    num_switches;
    links = Engine.Vec.create ();
    outgoing = Array.make (num_hosts + num_switches) [];
  }

let num_nodes t = t.num_hosts + t.num_switches

let num_hosts t = t.num_hosts

let num_links t = Engine.Vec.length t.links

let kind t n =
  if n < 0 || n >= num_nodes t then invalid_arg "Topology.kind: unknown node";
  if n < t.num_hosts then Host else Switch

let add_link t ~src ~dst ~rate ~delay =
  let n = num_nodes t in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg "Topology.add_link: unknown node";
  if src = dst then invalid_arg "Topology.add_link: self loop";
  if rate <= 0. then invalid_arg "Topology.add_link: non-positive rate";
  if delay < 0. then invalid_arg "Topology.add_link: negative delay";
  let link = { id = Engine.Vec.length t.links; src; dst; rate; delay } in
  Engine.Vec.add_last t.links link;
  t.outgoing.(src) <- link :: t.outgoing.(src);
  link

let add_duplex t ~a ~b ~rate ~delay =
  let ab = add_link t ~src:a ~dst:b ~rate ~delay in
  let ba = add_link t ~src:b ~dst:a ~rate ~delay in
  (ab, ba)

let links_from t n =
  if n < 0 || n >= num_nodes t then
    invalid_arg "Topology.links_from: unknown node";
  List.rev t.outgoing.(n)

let link t id =
  if id < 0 || id >= num_links t then invalid_arg "Topology.link: unknown id";
  Engine.Vec.get t.links id

let leaf_of_host ~leaves ~hosts_per_leaf h =
  let num_hosts = leaves * hosts_per_leaf in
  if h < 0 || h >= num_hosts then
    invalid_arg "Topology.leaf_of_host: not a host";
  num_hosts + (h / hosts_per_leaf)

let leaf_spine ~leaves ~spines ~hosts_per_leaf ~access_rate ~fabric_rate
    ~link_delay =
  if leaves <= 0 || spines <= 0 || hosts_per_leaf <= 0 then
    invalid_arg "Topology.leaf_spine: non-positive dimension";
  let num_hosts = leaves * hosts_per_leaf in
  let t = create ~num_hosts ~num_switches:(leaves + spines) in
  for h = 0 to num_hosts - 1 do
    let leaf = leaf_of_host ~leaves ~hosts_per_leaf h in
    ignore (add_duplex t ~a:h ~b:leaf ~rate:access_rate ~delay:link_delay)
  done;
  for l = 0 to leaves - 1 do
    for s = 0 to spines - 1 do
      let leaf = num_hosts + l in
      let spine = num_hosts + leaves + s in
      ignore (add_duplex t ~a:leaf ~b:spine ~rate:fabric_rate ~delay:link_delay)
    done
  done;
  t
