(** Network topologies.

    Nodes are dense integer ids: hosts first ([0 .. num_hosts - 1]), then
    switches.  Links are unidirectional (a full-duplex cable is two links)
    and carry a rate, a propagation delay, and the id of the output port
    that feeds them. *)

type node_kind = Host | Switch

type link = {
  id : int;  (** dense link id, also the output-port id *)
  src : int;
  dst : int;
  rate : float;  (** bits per second *)
  delay : float;  (** propagation delay, seconds *)
}

type t

val create : num_hosts:int -> num_switches:int -> t

val add_link : t -> src:int -> dst:int -> rate:float -> delay:float -> link
(** Add one unidirectional link.
    @raise Invalid_argument on unknown nodes, non-positive rate, or
    negative delay. *)

val add_duplex : t -> a:int -> b:int -> rate:float -> delay:float -> link * link
(** Two links, [a]→[b] and [b]→[a]. *)

val num_nodes : t -> int

val num_hosts : t -> int

val num_links : t -> int

val kind : t -> int -> node_kind

val links_from : t -> int -> link list
(** Outgoing links of a node, in insertion order. *)

val link : t -> int -> link
(** Link by id. *)

val leaf_spine :
  leaves:int ->
  spines:int ->
  hosts_per_leaf:int ->
  access_rate:float ->
  fabric_rate:float ->
  link_delay:float ->
  t
(** The paper's evaluation fabric: every host connects to its leaf at
    [access_rate]; every leaf connects to every spine at [fabric_rate].
    Node layout: hosts [0 .. leaves*hosts_per_leaf - 1] (host [h] hangs off
    leaf [h / hosts_per_leaf]), then leaf switches, then spine switches. *)

val leaf_of_host : leaves:int -> hosts_per_leaf:int -> int -> int
(** Node id of the leaf switch serving a host in a {!leaf_spine} fabric. *)
