(* Tests for the packet-level network simulator: topology construction,
   ECMP routing, the link/port model, the windowed and CBR transports, the
   workload generators, and the FCT metrics. *)

let fifo_ports ~capacity _link = Sched.Fifo_queue.create ~capacity_pkts:capacity ()

(* ------------------------------------------------------------------ *)
(* Topology                                                           *)
(* ------------------------------------------------------------------ *)

let test_topology_basic () =
  let t = Netsim.Topology.create ~num_hosts:2 ~num_switches:1 in
  let l, l' = Netsim.Topology.add_duplex t ~a:0 ~b:2 ~rate:1e9 ~delay:1e-6 in
  Alcotest.(check int) "link ids" 0 l.Netsim.Topology.id;
  Alcotest.(check int) "reverse id" 1 l'.Netsim.Topology.id;
  Alcotest.(check int) "num links" 2 (Netsim.Topology.num_links t);
  Alcotest.(check bool) "host kind" true (Netsim.Topology.kind t 0 = Netsim.Topology.Host);
  Alcotest.(check bool) "switch kind" true (Netsim.Topology.kind t 2 = Netsim.Topology.Switch)

let test_topology_invalid () =
  let t = Netsim.Topology.create ~num_hosts:2 ~num_switches:0 in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "self loop" true
    (raises (fun () -> ignore (Netsim.Topology.add_link t ~src:0 ~dst:0 ~rate:1. ~delay:0.)));
  Alcotest.(check bool) "unknown node" true
    (raises (fun () -> ignore (Netsim.Topology.add_link t ~src:0 ~dst:9 ~rate:1. ~delay:0.)));
  Alcotest.(check bool) "zero rate" true
    (raises (fun () -> ignore (Netsim.Topology.add_link t ~src:0 ~dst:1 ~rate:0. ~delay:0.)))

let test_leaf_spine_shape () =
  (* The paper's fabric: 9 leaves x 16 hosts, 4 spines. *)
  let t =
    Netsim.Topology.leaf_spine ~leaves:9 ~spines:4 ~hosts_per_leaf:16
      ~access_rate:1e9 ~fabric_rate:4e9 ~link_delay:1e-6
  in
  Alcotest.(check int) "hosts" 144 (Netsim.Topology.num_hosts t);
  Alcotest.(check int) "nodes" (144 + 13) (Netsim.Topology.num_nodes t);
  (* 144 host duplexes + 36 leaf-spine duplexes. *)
  Alcotest.(check int) "links" ((144 + 36) * 2) (Netsim.Topology.num_links t);
  let leaf = Netsim.Topology.leaf_of_host ~leaves:9 ~hosts_per_leaf:16 0 in
  Alcotest.(check int) "host 0's leaf" 144 leaf;
  Alcotest.(check int) "host 143's leaf" 152
    (Netsim.Topology.leaf_of_host ~leaves:9 ~hosts_per_leaf:16 143);
  (* Every leaf has 16 host downlinks + 4 spine uplinks. *)
  Alcotest.(check int) "leaf degree" 20 (List.length (Netsim.Topology.links_from t 144));
  (* Every spine has 9 leaf links. *)
  Alcotest.(check int) "spine degree" 9 (List.length (Netsim.Topology.links_from t 153))

let test_leaf_spine_rates () =
  let t =
    Netsim.Topology.leaf_spine ~leaves:2 ~spines:2 ~hosts_per_leaf:2
      ~access_rate:1e9 ~fabric_rate:4e9 ~link_delay:1e-6
  in
  List.iter
    (fun l ->
      let is_access =
        l.Netsim.Topology.src < 4 || l.Netsim.Topology.dst < 4
      in
      let expected = if is_access then 1e9 else 4e9 in
      Alcotest.(check (float 0.)) "rate" expected l.Netsim.Topology.rate)
    (List.init (Netsim.Topology.num_links t) (Netsim.Topology.link t))

(* ------------------------------------------------------------------ *)
(* Routing                                                            *)
(* ------------------------------------------------------------------ *)

let small_fabric () =
  Netsim.Topology.leaf_spine ~leaves:2 ~spines:2 ~hosts_per_leaf:2
    ~access_rate:1e9 ~fabric_rate:4e9 ~link_delay:1e-6

let test_routing_path_valid () =
  let topo = small_fabric () in
  let routing = Netsim.Routing.compute topo in
  (* Host 0 -> host 3 crosses leaf 4, some spine, leaf 5. *)
  let path = Netsim.Routing.path routing ~src:0 ~dst:3 ~flow:7 in
  (match path with
  | [ 0; 4; spine; 5; 3 ] ->
    Alcotest.(check bool) "via a spine" true (spine = 6 || spine = 7)
  | _ -> Alcotest.failf "unexpected path length %d" (List.length path));
  (* Same-leaf traffic stays under the leaf. *)
  Alcotest.(check (list int)) "intra-leaf path" [ 0; 4; 1 ]
    (Netsim.Routing.path routing ~src:0 ~dst:1 ~flow:1)

let test_routing_ecmp_spread () =
  let topo = small_fabric () in
  let routing = Netsim.Routing.compute topo in
  (* Cross-leaf flows should use both spines across many flow ids. *)
  let spines =
    List.init 64 (fun flow ->
        match Netsim.Routing.path routing ~src:0 ~dst:3 ~flow with
        | [ _; _; spine; _; _ ] -> spine
        | _ -> Alcotest.fail "bad path")
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "both spines used" [ 6; 7 ] spines

let test_routing_flow_sticky () =
  let topo = small_fabric () in
  let routing = Netsim.Routing.compute topo in
  let p1 = Netsim.Routing.path routing ~src:0 ~dst:3 ~flow:42 in
  let p2 = Netsim.Routing.path routing ~src:0 ~dst:3 ~flow:42 in
  Alcotest.(check (list int)) "same flow, same path" p1 p2

let test_routing_candidates () =
  let topo = small_fabric () in
  let routing = Netsim.Routing.compute topo in
  (* At leaf 4, towards a remote host, both spine uplinks are candidates. *)
  Alcotest.(check int) "two candidates" 2
    (List.length (Netsim.Routing.candidates routing ~node:4 ~dst:3));
  (* Towards a local host there is exactly one way down. *)
  Alcotest.(check int) "one candidate" 1
    (List.length (Netsim.Routing.candidates routing ~node:4 ~dst:1))

(* ------------------------------------------------------------------ *)
(* Net: link timing and queueing                                      *)
(* ------------------------------------------------------------------ *)

(* Two hosts joined by one switch; 1 Gb/s links with 1 us delay. *)
let tiny_net ?(capacity = 100) ?preprocess ?(qdisc = fifo_ports ~capacity) () =
  let topo = Netsim.Topology.create ~num_hosts:2 ~num_switches:1 in
  ignore (Netsim.Topology.add_duplex topo ~a:0 ~b:2 ~rate:1e9 ~delay:1e-6);
  ignore (Netsim.Topology.add_duplex topo ~a:1 ~b:2 ~rate:1e9 ~delay:1e-6);
  let routing = Netsim.Routing.compute topo in
  let sim = Engine.Sim.create () in
  let delivered = ref [] in
  let net =
    Netsim.Net.create ~sim ~topo ~routing ~make_qdisc:qdisc ?preprocess
      ~deliver:(fun p -> delivered := p :: !delivered)
      ()
  in
  (sim, net, delivered)

let test_net_delivery_timing () =
  let sim, net, delivered = tiny_net () in
  let p = Sched.Packet.make ~src:0 ~dst:1 ~flow:1 ~size:1250 () in
  Netsim.Net.inject net p;
  Engine.Sim.run sim;
  Alcotest.(check int) "delivered" 1 (List.length !delivered);
  (* Two hops: 2 x (1250*8/1e9 tx + 1e-6 prop) = 2 * 11 us = 22 us. *)
  Alcotest.(check (float 1e-9)) "arrival time" 22e-6 (Engine.Sim.now sim)

let test_net_store_and_forward_serialization () =
  (* Two same-size packets on one path: the second finishes one
     transmission time after the first (pipeline). *)
  let sim, net, delivered = tiny_net () in
  let mk () = Sched.Packet.make ~src:0 ~dst:1 ~flow:1 ~size:1250 () in
  Netsim.Net.inject net (mk ());
  Netsim.Net.inject net (mk ());
  Engine.Sim.run sim;
  Alcotest.(check int) "both delivered" 2 (List.length !delivered);
  Alcotest.(check (float 1e-9)) "second arrives 10us later" 32e-6
    (Engine.Sim.now sim)

let test_net_drop_counting () =
  let sim, net, delivered = tiny_net ~capacity:1 () in
  for _ = 1 to 5 do
    Netsim.Net.inject net (Sched.Packet.make ~src:0 ~dst:1 ~flow:1 ~size:1250 ())
  done;
  Engine.Sim.run sim;
  (* Capacity 1 + 1 in flight: first is dequeued immediately (port idle),
     second queues; the rest drop. *)
  Alcotest.(check int) "drops" 3 (Netsim.Net.total_drops net);
  Alcotest.(check int) "delivered rest" 2 (List.length !delivered)

let test_net_preprocess_hook () =
  let stamped = ref 0 in
  let preprocess p =
    incr stamped;
    p.Sched.Packet.rank <- 99
  in
  let sim, net, delivered = tiny_net ~preprocess () in
  Netsim.Net.inject net (Sched.Packet.make ~src:0 ~dst:1 ~flow:1 ~size:1250 ());
  Engine.Sim.run sim;
  (* Hook runs at the host NIC port and the switch port: twice. *)
  Alcotest.(check int) "hook ran per hop" 2 !stamped;
  match !delivered with
  | [ p ] -> Alcotest.(check int) "rank rewritten" 99 p.Sched.Packet.rank
  | _ -> Alcotest.fail "expected one delivery"

let test_net_inject_from_switch_rejected () =
  let sim, net, _ = tiny_net () in
  ignore sim;
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "switch cannot inject" true
    (raises (fun () ->
         Netsim.Net.inject net (Sched.Packet.make ~src:2 ~dst:1 ~flow:1 ~size:100 ())))

let test_net_pifo_ports_reorder () =
  (* With PIFO ports, a burst injected back-to-back leaves in rank order
     (after the head-of-line packet that seized the idle link). *)
  let sim, net, delivered =
    tiny_net
      ~qdisc:(fun _ -> Sched.Bucket_queue.create ~capacity_pkts:100 ())
      ()
  in
  List.iter
    (fun r ->
      Netsim.Net.inject net
        (Sched.Packet.make ~src:0 ~dst:1 ~flow:1 ~size:1250 ~rank:r ()))
    [ 5; 9; 1; 7; 3 ];
  Engine.Sim.run sim;
  let order = List.rev_map (fun p -> p.Sched.Packet.rank) !delivered in
  Alcotest.(check (list int)) "rank order after head" [ 5; 1; 3; 7; 9 ] order

let test_routing_ecmp_balance () =
  (* Over many flows between random cross-leaf pairs, both spines carry a
     comparable share (hash quality, not just coverage). *)
  let topo = small_fabric () in
  let routing = Netsim.Routing.compute topo in
  let counts = Hashtbl.create 4 in
  for flow = 0 to 999 do
    match Netsim.Routing.path routing ~src:0 ~dst:3 ~flow with
    | [ _; _; spine; _; _ ] ->
      Hashtbl.replace counts spine
        (1 + Option.value (Hashtbl.find_opt counts spine) ~default:0)
    | _ -> Alcotest.fail "bad path"
  done;
  let share spine =
    float_of_int (Option.value (Hashtbl.find_opt counts spine) ~default:0)
    /. 1000.
  in
  Alcotest.(check bool)
    (Printf.sprintf "spine shares %.2f/%.2f" (share 6) (share 7))
    true
    (share 6 > 0.40 && share 6 < 0.60)

(* Back-to-back packets of mixed sizes from host 0 to host 1 over 1 Gb/s
   links of the given delay, host 0's uplink optionally shaped: each
   packet's injection index and delivery time, in delivery order. *)
let wire_run ~delay ?shaper () =
  let topo = Netsim.Topology.create ~num_hosts:2 ~num_switches:1 in
  ignore (Netsim.Topology.add_duplex topo ~a:0 ~b:2 ~rate:1e9 ~delay);
  ignore (Netsim.Topology.add_duplex topo ~a:1 ~b:2 ~rate:1e9 ~delay);
  let routing = Netsim.Routing.compute topo in
  let sim = Engine.Sim.create () in
  let delivered = ref [] in
  let net =
    Netsim.Net.create ~sim ~topo ~routing ~make_qdisc:(fifo_ports ~capacity:100)
      ~shaper_of:(fun l -> if l.Netsim.Topology.id = 0 then shaper else None)
      ~deliver:(fun p -> delivered := (p, Engine.Sim.now sim) :: !delivered)
      ()
  in
  let sizes = [ 1500; 64; 900; 64; 1500; 300; 1200; 64; 64; 700; 1500; 128 ] in
  let packets =
    List.map (fun size -> Sched.Packet.make ~src:0 ~dst:1 ~flow:1 ~size ()) sizes
  in
  List.iter (Netsim.Net.inject net) packets;
  Engine.Sim.run sim;
  let index p =
    let rec go i = function
      | [] -> -1
      | q :: rest -> if q == p then i else go (i + 1) rest
    in
    go 0 packets
  in
  List.rev_map (fun (p, time) -> (index p, time)) !delivered

let test_net_wire_order () =
  (* A link delivers in transmit order at exact store-and-forward times:
     on a zero-delay link (each arrival coincides with the next packet's
     start), on a 50 us link (most of the burst on the wire at once), and
     through a shaped port.  The times are pinned bit for bit. *)
  let check what expected got =
    Alcotest.(check (list int)) (what ^ ": transmit order")
      (List.init (List.length expected) Fun.id)
      (List.map fst got);
    List.iter2
      (fun want (i, time) ->
        if not (Float.equal want time) then
          Alcotest.failf "%s: packet %d delivered at %h, want %h" what i time want)
      expected got
  in
  check "zero delay"
    [
      0x1.92a737110e454p-16; 0x1.9b3e3d0521b09p-16;
      0x1.0a05005eb962bp-15; 0x1.0e508358c3185p-15;
      0x1.72fa511d06a9ap-15; 0x1.871c4711142d1p-15;
      0x1.d7a41ee14a3aep-15; 0x1.dbefa1db53f08p-15;
      0x1.e03b24d55da62p-15; 0x1.079a86b213ec7p-14;
      0x1.39ef6d9435b52p-14; 0x1.3e3af08e3f6acp-14
    ]
    (wire_run ~delay:0. ());
  check "50 us"
    [
      0x1.040bfe3b03e21p-13; 0x1.051edef9864f8p-13;
      0x1.1438577090721p-13; 0x1.154b382f12df8p-13;
      0x1.2e75aba023c3dp-13; 0x1.337e291d2724bp-13;
      0x1.47a01f1134a82p-13; 0x1.48b2ffcfb7159p-13;
      0x1.49c5e08e3983p-13; 0x1.55845ab1ec0fbp-13;
      0x1.6eaece22fcf4p-13; 0x1.70d48fa001ceep-13
    ]
    (wire_run ~delay:50e-6 ());
  check "shaped"
    [
      0x1.b43526527a206p-16; 0x1.bccc2c468d8bap-16;
      0x1.1acbf7ff6f504p-15; 0x1.1f177af97905ep-15;
      0x1.8694fc734ffb4p-15; 0x1.9ab6f2675d7ebp-15;
      0x1.2cfcc97aeeefdp-14; 0x1.2f228af7f3caap-14;
      0x1.31484c74f8a57p-14; 0x1.50e4045d181a3p-14;
      0x1.02341563f2f74p-13; 0x1.0459d6e0f7d21p-13
    ]
    (wire_run ~delay:1e-6
       ~shaper:{ Netsim.Net.shaper_rate = 50e6; shaper_burst = 3000. }
       ())

(* ------------------------------------------------------------------ *)
(* Shaped ports                                                       *)
(* ------------------------------------------------------------------ *)

(* Two hosts, one switch; host 0's uplink (link 0) is shaped. *)
let shaped_net ~rate ~burst =
  let topo = Netsim.Topology.create ~num_hosts:2 ~num_switches:1 in
  ignore (Netsim.Topology.add_duplex topo ~a:0 ~b:2 ~rate:1e9 ~delay:1e-6);
  ignore (Netsim.Topology.add_duplex topo ~a:1 ~b:2 ~rate:1e9 ~delay:1e-6);
  let routing = Netsim.Routing.compute topo in
  let sim = Engine.Sim.create () in
  let delivered = ref [] in
  let net =
    Netsim.Net.create ~sim ~topo ~routing
      ~make_qdisc:(fun _ -> Sched.Fifo_queue.create ~capacity_pkts:1000 ())
      ~shaper_of:(fun l ->
        if l.Netsim.Topology.id = 0 then
          Some { Netsim.Net.shaper_rate = rate; shaper_burst = burst }
        else None)
      ~deliver:(fun p -> delivered := (Engine.Sim.now sim, p) :: !delivered)
      ()
  in
  (sim, net, delivered)

let test_shaper_limits_rate () =
  (* 100 packets of 1250 B through a 10 MB/s shaper with a one-packet
     bucket: draining takes ~ 125 KB / 10 MB/s = 12.5 ms even though the
     wire is 1 Gb/s. *)
  let sim, net, delivered = shaped_net ~rate:10e6 ~burst:1518. in
  for _ = 1 to 100 do
    Netsim.Net.inject net (Sched.Packet.make ~src:0 ~dst:1 ~flow:1 ~size:1250 ())
  done;
  Engine.Sim.run sim;
  Alcotest.(check int) "all delivered" 100 (List.length !delivered);
  let finish = Engine.Sim.now sim in
  Alcotest.(check bool)
    (Printf.sprintf "finished at %.2f ms (paced)" (1e3 *. finish))
    true
    (finish > 11e-3 && finish < 14e-3)

let test_shaper_allows_burst () =
  (* A bucket holding 10 packets lets the first 10 out back-to-back. *)
  let sim, net, delivered = shaped_net ~rate:1e6 ~burst:12_500. in
  for _ = 1 to 10 do
    Netsim.Net.inject net (Sched.Packet.make ~src:0 ~dst:1 ~flow:1 ~size:1250 ())
  done;
  Engine.Sim.run ~until:0.001 sim;
  (* At wire speed 10 x 1250 B take 100 us + delays: all arrive < 1 ms. *)
  Alcotest.(check int) "burst passed unshaped" 10 (List.length !delivered)

let test_shaper_idles_with_backlog () =
  (* Non-work-conservation: with an empty bucket the port waits even
     though a packet is queued. *)
  let sim, net, delivered = shaped_net ~rate:1e6 ~burst:1518. in
  Netsim.Net.inject net (Sched.Packet.make ~src:0 ~dst:1 ~flow:1 ~size:1400 ());
  Netsim.Net.inject net (Sched.Packet.make ~src:0 ~dst:1 ~flow:1 ~size:1400 ());
  Engine.Sim.run ~until:0.0005 sim;
  Alcotest.(check int) "only the bucketful left" 1 (List.length !delivered);
  Alcotest.(check bool) "second packet still queued" true
    (Netsim.Net.queued_packets net = 1);
  Engine.Sim.run sim;
  Alcotest.(check int) "delivered once refilled" 2 (List.length !delivered)

let test_shaper_unshaped_ports_unaffected () =
  let sim, net, delivered = shaped_net ~rate:1e6 ~burst:1518. in
  (* Host 1 -> host 0 rides only unshaped links. *)
  Netsim.Net.inject net (Sched.Packet.make ~src:1 ~dst:0 ~flow:2 ~size:1250 ());
  Engine.Sim.run ~until:0.0001 sim;
  Alcotest.(check int) "full speed elsewhere" 1 (List.length !delivered)

let test_shaper_validation () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero rate" true
    (raises (fun () -> ignore (shaped_net ~rate:0. ~burst:2000.)));
  Alcotest.(check bool) "tiny burst" true
    (raises (fun () -> ignore (shaped_net ~rate:1e6 ~burst:100.)))

(* ------------------------------------------------------------------ *)
(* Transport                                                          *)
(* ------------------------------------------------------------------ *)

let transport_net ?(capacity = 100) ?(qdisc = fifo_ports ~capacity) () =
  let topo = small_fabric () in
  let routing = Netsim.Routing.compute topo in
  let sim = Engine.Sim.create () in
  let transport = Netsim.Transport.create ~sim () in
  let net =
    Netsim.Net.create ~sim ~topo ~routing ~make_qdisc:qdisc
      ~deliver:(Netsim.Transport.deliver transport)
      ()
  in
  Netsim.Transport.attach transport net;
  (sim, net, transport)

let test_transport_validation () =
  let _sim, _net, transport = transport_net () in
  let raises f = try f (); false with Invalid_argument _ -> true in
  let start ?(src = 0) ?(dst = 3) ?(size = 1000) ?(window = 4) () =
    ignore
      (Netsim.Transport.start_flow transport ~tenant:0
         ~ranker:(Sched.Ranker.pfabric ()) ~src ~dst ~size ~window
         ~on_complete:(fun _ -> ())
         ())
  in
  Alcotest.(check bool) "src = dst" true (raises (fun () -> start ~dst:0 ()));
  Alcotest.(check bool) "zero size" true (raises (fun () -> start ~size:0 ()));
  Alcotest.(check bool) "zero window" true (raises (fun () -> start ~window:0 ()))

let test_transport_window_one () =
  (* Stop-and-wait still completes, just slowly. *)
  let sim, _net, transport = transport_net () in
  let done_ = ref false in
  ignore
    (Netsim.Transport.start_flow transport ~tenant:0
       ~ranker:(Sched.Ranker.pfabric ()) ~src:0 ~dst:3 ~size:14_600 ~window:1
       ~on_complete:(fun _ -> done_ := true)
       ());
  Engine.Sim.run sim;
  Alcotest.(check bool) "completes with window 1" true !done_

let test_transport_bidirectional_pair () =
  (* Simultaneous flows in both directions between one host pair share the
     duplex links without interference artifacts. *)
  let sim, _net, transport = transport_net () in
  let completed = ref 0 in
  let start src dst =
    ignore
      (Netsim.Transport.start_flow transport ~tenant:0
         ~ranker:(Sched.Ranker.pfabric ()) ~src ~dst ~size:200_000
         ~on_complete:(fun r ->
           incr completed;
           (* Each direction gets full throughput: FCT close to isolated. *)
           Alcotest.(check bool) "near-isolated FCT" true
             (Netsim.Transport.fct r < 4e-3))
         ())
  in
  start 0 3;
  start 3 0;
  Engine.Sim.run sim;
  Alcotest.(check int) "both done" 2 !completed

let test_transport_single_flow_completes () =
  let sim, _net, transport = transport_net () in
  let result = ref None in
  ignore
    (Netsim.Transport.start_flow transport ~tenant:0
       ~ranker:(Sched.Ranker.pfabric ()) ~src:0 ~dst:3 ~size:100_000
       ~on_complete:(fun r -> result := Some r)
       ());
  Engine.Sim.run sim;
  match !result with
  | None -> Alcotest.fail "flow never completed"
  | Some r ->
    Alcotest.(check int) "size recorded" 100_000 r.Netsim.Transport.size;
    let fct = Netsim.Transport.fct r in
    (* 100 KB at 1 Gb/s is 0.8 ms minimum; with windowing it takes a bit
       longer but must stay well under 10 ms on an idle fabric. *)
    Alcotest.(check bool) "fct sane" true (fct > 0.8e-3 && fct < 10e-3)

let test_transport_tiny_flow () =
  let sim, _net, transport = transport_net () in
  let done_ = ref false in
  ignore
    (Netsim.Transport.start_flow transport ~tenant:0
       ~ranker:(Sched.Ranker.pfabric ()) ~src:0 ~dst:1 ~size:1
       ~on_complete:(fun _ -> done_ := true)
       ());
  Engine.Sim.run sim;
  Alcotest.(check bool) "1-byte flow completes" true !done_

let test_transport_active_flow_accounting () =
  let sim, _net, transport = transport_net () in
  ignore
    (Netsim.Transport.start_flow transport ~tenant:0
       ~ranker:(Sched.Ranker.pfabric ()) ~src:0 ~dst:3 ~size:10_000
       ~on_complete:(fun _ -> ())
       ());
  Alcotest.(check int) "active while running" 1
    (Netsim.Transport.active_flows transport);
  Engine.Sim.run sim;
  Alcotest.(check int) "quiescent after" 0 (Netsim.Transport.active_flows transport)

(* A flow that is complete and fully acknowledged gives up its
   per-segment state: what stays live per finished ten-segment flow is
   about three words (its registry slot and a stub), where keeping the
   whole flow costs about fifty. *)
let test_transport_retires_completed_flows () =
  let sim, _net, transport = transport_net () in
  let ranker = Sched.Ranker.pfabric () in
  let flows = 1000 in
  let completed = ref 0 in
  let on_complete _ = incr completed in
  Gc.full_major ();
  let live_before = (Gc.stat ()).Gc.live_words in
  (* Each start schedules the next, so the event queue never holds more
     than a few of them and its own footprint does not scale with
     [flows]. *)
  let rec start i () =
    if i < flows then begin
      ignore
        (Netsim.Transport.start_flow transport ~tenant:0 ~ranker ~src:(i mod 4)
           ~dst:((i + 1) mod 4) ~size:14_600 ~on_complete ());
      Engine.Sim.schedule_after_ sim ~delay:150e-6 (start (i + 1))
    end
  in
  start 0 ();
  Engine.Sim.run sim;
  Alcotest.(check int) "every flow completed" flows !completed;
  Gc.full_major ();
  let per_flow =
    float_of_int ((Gc.stat ()).Gc.live_words - live_before) /. float_of_int flows
  in
  if per_flow > 6. then
    Alcotest.failf "%.1f live words per completed flow (bound 6)" per_flow;
  (* Used after the measurement, so the registry is live during it. *)
  Alcotest.(check int) "quiescent" 0 (Netsim.Transport.active_flows transport)

let test_transport_recovers_from_drops () =
  (* A tiny queue forces drops; retransmission must still complete the
     flow. *)
  let sim, net, transport = transport_net ~capacity:3 () in
  let done_ = ref false in
  ignore
    (Netsim.Transport.start_flow transport ~tenant:0
       ~ranker:(Sched.Ranker.pfabric ()) ~src:0 ~dst:3 ~size:60_000
       ~window:24 ~rto:0.5e-3
       ~on_complete:(fun _ -> done_ := true)
       ());
  Engine.Sim.run sim;
  Alcotest.(check bool) "drops occurred" true (Netsim.Net.total_drops net > 0);
  Alcotest.(check bool) "flow still completed" true !done_

let test_transport_concurrent_flows_share () =
  let sim, _net, transport = transport_net () in
  let completions = ref [] in
  let start src dst =
    ignore
      (Netsim.Transport.start_flow transport ~tenant:0
         ~ranker:(Sched.Ranker.pfabric ()) ~src ~dst ~size:50_000
         ~on_complete:(fun r -> completions := r :: !completions)
         ())
  in
  start 0 3;
  start 1 2;
  start 2 0;
  Engine.Sim.run sim;
  Alcotest.(check int) "all complete" 3 (List.length !completions)

let test_transport_srpt_under_contention () =
  (* Two flows from the same host to the same destination with PIFO ports
     and pFabric ranks: the short flow must finish first even though the
     long one started first. *)
  let sim, _net, transport =
    transport_net
      ~qdisc:(fun _ -> Sched.Bucket_queue.create ~capacity_pkts:100 ())
      ()
  in
  let order = ref [] in
  let ranker = Sched.Ranker.pfabric () in
  ignore
    (Netsim.Transport.start_flow transport ~tenant:0 ~ranker ~src:0 ~dst:3
       ~size:2_000_000
       ~on_complete:(fun _ -> order := `Long :: !order)
       ());
  ignore
    (Engine.Sim.schedule_after sim ~delay:1e-4 (fun () ->
         ignore
           (Netsim.Transport.start_flow transport ~tenant:0 ~ranker ~src:0
              ~dst:3 ~size:30_000
              ~on_complete:(fun _ -> order := `Short :: !order)
              ())));
  Engine.Sim.run sim;
  Alcotest.(check bool) "short finished first" true
    (List.rev !order = [ `Short; `Long ])

let test_cbr_throughput_and_deadlines () =
  let sim, _net, transport = transport_net () in
  let stats =
    Netsim.Transport.start_cbr transport ~tenant:1
      ~ranker:(Sched.Ranker.edf ()) ~src:0 ~dst:3 ~rate:0.5e9
      ~deadline_budget:1e-3 ~until:0.01 ()
  in
  Engine.Sim.run sim;
  (* 0.5 Gb/s for 10 ms = 625 KB ~ 411 packets of 1518 B. *)
  Alcotest.(check bool) "sent about 411" true (abs (stats.Netsim.Transport.sent - 411) <= 2);
  Alcotest.(check int) "all delivered" stats.Netsim.Transport.sent
    stats.Netsim.Transport.delivered;
  Alcotest.(check int) "all met deadline" stats.Netsim.Transport.delivered
    stats.Netsim.Transport.deadline_met;
  (* One-way delay on an idle path ~ 24 us. *)
  Alcotest.(check bool) "delay sane" true
    (Engine.Stats.mean stats.Netsim.Transport.delay < 100e-6)

let test_cbr_respects_until () =
  let sim, _net, transport = transport_net () in
  let stats =
    Netsim.Transport.start_cbr transport ~tenant:1
      ~ranker:(Sched.Ranker.edf ()) ~src:0 ~dst:3 ~rate:1e8 ~until:0.001 ()
  in
  Engine.Sim.run sim;
  Alcotest.(check bool) "stopped sending" true (Engine.Sim.now sim < 0.01);
  Alcotest.(check bool) "sent some" true (stats.Netsim.Transport.sent > 0)

let test_net_on_dequeue_feedback () =
  (* The fabric's on_dequeue hook feeds served packets back to a
     virtual-clock ranker (the STFQ feedback loop of the PIFO paper). *)
  let ranker = Sched.Ranker.stfq () in
  let topo = Netsim.Topology.create ~num_hosts:2 ~num_switches:1 in
  ignore (Netsim.Topology.add_duplex topo ~a:0 ~b:2 ~rate:1e9 ~delay:1e-6);
  ignore (Netsim.Topology.add_duplex topo ~a:1 ~b:2 ~rate:1e9 ~delay:1e-6);
  let routing = Netsim.Routing.compute topo in
  let sim = Engine.Sim.create () in
  let served = ref 0 in
  let net =
    Netsim.Net.create ~sim ~topo ~routing
      ~make_qdisc:(fun _ -> Sched.Bucket_queue.create ~capacity_pkts:100 ())
      ~on_dequeue:(fun p ->
        incr served;
        Sched.Ranker.on_dequeue ranker p)
      ~deliver:(fun _ -> ())
      ()
  in
  let p = Sched.Packet.make ~src:0 ~dst:1 ~flow:5 ~size:1000 () in
  ignore (Sched.Ranker.tag ranker ~now:0. p);
  Netsim.Net.inject net p;
  Engine.Sim.run sim;
  (* Two hops -> the hook fired twice; a later flow's first tag starts at
     or beyond the served packet's virtual start. *)
  Alcotest.(check int) "hook fired per hop" 2 !served;
  let q = Sched.Packet.make ~src:0 ~dst:1 ~flow:6 ~size:1000 () in
  Alcotest.(check bool) "virtual clock advanced for newcomers" true
    (Sched.Ranker.tag ranker ~now:0. q >= p.Sched.Packet.label)

(* ------------------------------------------------------------------ *)
(* Workload                                                           *)
(* ------------------------------------------------------------------ *)

let test_data_mining_shape () =
  let d = Netsim.Workload.data_mining () in
  let r = Engine.Rng.create ~seed:5 in
  let n = 20_000 in
  let small = ref 0 and large = ref 0 in
  for _ = 1 to n do
    let s = Engine.Rng.Empirical.sample d r in
    if s <= 1_100. then incr small;
    if s >= 1_000_000. then incr large
  done;
  let frac x = float_of_int x /. float_of_int n in
  (* Half the flows are tiny; 20%+ are >= 1 MB (the 0.8 CDF knee sits at
     2 MB). *)
  Alcotest.(check bool) "about half tiny" true
    (abs_float (frac !small -. 0.5) < 0.03);
  Alcotest.(check bool) "heavy tail present" true (frac !large > 0.15);
  Alcotest.(check bool) "mean in the MBs" true
    (Engine.Rng.Empirical.mean d > 1e6)

let test_flow_arrival_rate () =
  (* load 0.8, 144 hosts, 1 Gb/s, 2.74 MB mean: ~5.2 kflows/s. *)
  let rate =
    Netsim.Workload.flow_arrival_rate ~load:0.8 ~num_hosts:144 ~access_rate:1e9
      ~mean_flow_size:2.74e6
  in
  Alcotest.(check bool) "plausible rate" true (rate > 5000. && rate < 5500.)

let test_poisson_open_loop_generates () =
  let sim, _net, transport = transport_net () in
  let rng = Engine.Rng.create ~seed:11 in
  let metrics = Netsim.Metrics.create () in
  let arrivals =
    Netsim.Workload.poisson_open_loop ~sim ~rng ~transport ~tenant:0
      ~ranker:(Sched.Ranker.pfabric ()) ~num_hosts:4 ~load:0.3
      ~access_rate:1e9 ~dist:(Netsim.Workload.data_mining ()) ~until:0.05
      ~on_complete:(Netsim.Metrics.record metrics)
      ()
  in
  Engine.Sim.run ~until:1.0 sim;
  Alcotest.(check bool) "flows were started" true (arrivals.Netsim.Workload.flows_started > 0);
  Alcotest.(check bool) "most flows completed" true
    (Netsim.Metrics.completed metrics > arrivals.Netsim.Workload.flows_started / 2)

let test_cbr_tenant_spawns_flows () =
  let sim, _net, transport = transport_net () in
  let rng = Engine.Rng.create ~seed:13 in
  let stats_list =
    Netsim.Workload.cbr_tenant ~sim ~rng ~transport ~tenant:1
      ~ranker:(Sched.Ranker.edf ()) ~num_hosts:4 ~flows:5 ~rate:1e8
      ~until:0.005 ()
  in
  Engine.Sim.run sim;
  Alcotest.(check int) "five streams" 5 (List.length stats_list);
  List.iter
    (fun s -> Alcotest.(check bool) "stream sent packets" true (s.Netsim.Transport.sent > 0))
    stats_list

(* ------------------------------------------------------------------ *)
(* Fluid model cross-validation                                       *)
(* ------------------------------------------------------------------ *)

let test_fluid_rtt () =
  (* 2 x 1 Gb/s hops, 1 us propagation: data 1518 B (12.14 us) + ack
     58 B (0.46 us) + 2 us prop per hop. *)
  let rtt =
    Netsim.Fluid.path_rtt ~rates:[ 1e9; 1e9 ] ~link_delay:1e-6
      ~mtu_payload:1460
  in
  Alcotest.(check bool)
    (Printf.sprintf "rtt = %.1f us" (1e6 *. rtt))
    true
    (rtt > 28e-6 && rtt < 31e-6)

let test_fluid_bandwidth_limited () =
  (* A large flow with a big window is bandwidth-limited: ~ size*8/C. *)
  let fct =
    Netsim.Fluid.estimate_fct ~size:10_000_000 ~mtu_payload:1460 ~window:64
      ~rates:[ 1e9; 1e9 ] ~link_delay:1e-6 ~load:0.
  in
  let ideal = 8. *. 10e6 /. 1e9 in
  Alcotest.(check bool) "close to line rate" true
    (fct > ideal && fct < 1.15 *. ideal)

let test_fluid_window_limited () =
  (* window 1: one mtu per rtt. *)
  let rtt =
    Netsim.Fluid.path_rtt ~rates:[ 1e9; 1e9 ] ~link_delay:1e-6 ~mtu_payload:1460
  in
  let fct =
    Netsim.Fluid.estimate_fct ~size:14_600 ~mtu_payload:1460 ~window:1
      ~rates:[ 1e9; 1e9 ] ~link_delay:1e-6 ~load:0.
  in
  Alcotest.(check bool) "ten rtts plus one" true
    (fct > 10. *. rtt && fct < 12. *. rtt)

let test_fluid_load_slows () =
  let at load =
    Netsim.Fluid.estimate_fct ~size:1_000_000 ~mtu_payload:1460 ~window:64
      ~rates:[ 1e9 ] ~link_delay:1e-6 ~load
  in
  Alcotest.(check bool) "load halves residual" true
    (at 0.5 > 1.8 *. at 0. && at 0.5 < 2.2 *. at 0.)

let test_fluid_invalid () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "load 1 rejected" true
    (raises (fun () ->
         ignore
           (Netsim.Fluid.estimate_fct ~size:1 ~mtu_payload:1 ~window:1
              ~rates:[ 1. ] ~link_delay:0. ~load:1.)))

let test_fluid_vs_packet_sim () =
  (* The simulator's FCT for an isolated flow should sit within ~50% of
     the fluid prediction (the model skips slow-start-ish rampup and
     queueing, the simulator has no other traffic). *)
  let sim, _net, transport = transport_net () in
  let measured = ref nan in
  ignore
    (Netsim.Transport.start_flow transport ~tenant:0
       ~ranker:(Sched.Ranker.pfabric ()) ~src:0 ~dst:3 ~size:1_000_000
       ~window:16
       ~on_complete:(fun r -> measured := Netsim.Transport.fct r)
       ());
  Engine.Sim.run sim;
  let predicted =
    Netsim.Fluid.estimate_fct ~size:1_000_000 ~mtu_payload:1460 ~window:16
      ~rates:
        (Netsim.Fluid.leaf_spine_path_rates ~intra_leaf:false ~access_rate:1e9
           ~fabric_rate:4e9)
      ~link_delay:1e-6 ~load:0.
  in
  let ratio = !measured /. predicted in
  Alcotest.(check bool)
    (Printf.sprintf "sim %.3f ms vs fluid %.3f ms (ratio %.2f)"
       (1e3 *. !measured) (1e3 *. predicted) ratio)
    true
    (ratio > 0.8 && ratio < 1.5)

let test_fluid_vs_packet_sim_small () =
  let sim, _net, transport = transport_net () in
  let measured = ref nan in
  ignore
    (Netsim.Transport.start_flow transport ~tenant:0
       ~ranker:(Sched.Ranker.pfabric ()) ~src:0 ~dst:1 ~size:20_000 ~window:12
       ~on_complete:(fun r -> measured := Netsim.Transport.fct r)
       ());
  Engine.Sim.run sim;
  let predicted =
    Netsim.Fluid.estimate_fct ~size:20_000 ~mtu_payload:1460 ~window:12
      ~rates:
        (Netsim.Fluid.leaf_spine_path_rates ~intra_leaf:true ~access_rate:1e9
           ~fabric_rate:4e9)
      ~link_delay:1e-6 ~load:0.
  in
  let ratio = !measured /. predicted in
  Alcotest.(check bool)
    (Printf.sprintf "sim %.3f ms vs fluid %.3f ms (ratio %.2f)"
       (1e3 *. !measured) (1e3 *. predicted) ratio)
    true
    (ratio > 0.5 && ratio < 2.0)

(* ------------------------------------------------------------------ *)
(* Trace                                                              *)
(* ------------------------------------------------------------------ *)

let sample_trace () =
  [
    { Netsim.Trace.start = 0.001; src = 0; dst = 3; size = 10_000; tenant = 0 };
    { Netsim.Trace.start = 0.002; src = 1; dst = 2; size = 500; tenant = 1 };
  ]

let test_trace_round_trip () =
  let specs = sample_trace () in
  match Netsim.Trace.of_string (Netsim.Trace.to_string specs) with
  | Ok parsed ->
    Alcotest.(check int) "same count" 2 (List.length parsed);
    List.iter2
      (fun (a : Netsim.Trace.flow_spec) (b : Netsim.Trace.flow_spec) ->
        Alcotest.(check int) "src" a.Netsim.Trace.src b.Netsim.Trace.src;
        Alcotest.(check int) "size" a.Netsim.Trace.size b.Netsim.Trace.size;
        Alcotest.(check (float 1e-9)) "start" a.Netsim.Trace.start b.Netsim.Trace.start)
      specs parsed
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_trace_parse_errors () =
  let is_error s =
    match Netsim.Trace.of_string s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "wrong arity" true (is_error "1.0 2 3\n");
  Alcotest.(check bool) "bad number" true (is_error "x 0 1 100 0\n");
  Alcotest.(check bool) "zero size" true (is_error "0.1 0 1 0 0\n");
  Alcotest.(check bool) "self loop" true (is_error "0.1 2 2 100 0\n");
  Alcotest.(check bool) "comments and blanks ok" false
    (is_error "# header\n\n0.1 0 1 100 0\n")

let test_trace_parse_tabs () =
  (* Fields may be separated by any run of blanks — tabs included, as in
     traces exported from spreadsheets or TSV tooling. *)
  match
    Netsim.Trace.of_string "0.001\t0\t3\t10000\t0\n0.002  1\t2  500 1\n"
  with
  | Ok [ a; b ] ->
    Alcotest.(check int) "tab src" 0 a.Netsim.Trace.src;
    Alcotest.(check int) "tab size" 10_000 a.Netsim.Trace.size;
    Alcotest.(check int) "mixed dst" 2 b.Netsim.Trace.dst;
    Alcotest.(check int) "mixed tenant" 1 b.Netsim.Trace.tenant
  | Ok l -> Alcotest.failf "expected 2 specs, got %d" (List.length l)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_trace_save_load () =
  let path = Filename.temp_file "qvisor_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Netsim.Trace.save path (sample_trace ());
      match Netsim.Trace.load path with
      | Ok specs -> Alcotest.(check int) "loaded" 2 (List.length specs)
      | Error e -> Alcotest.failf "load failed: %s" e)

let test_trace_synthesize_sorted () =
  let rng = Engine.Rng.create ~seed:21 in
  let specs =
    Netsim.Trace.synthesize ~rng ~dist:(Netsim.Workload.data_mining ())
      ~num_hosts:8 ~load:0.5 ~access_rate:1e9 ~tenant:0 ~until:0.2
  in
  Alcotest.(check bool) "non-empty" true (List.length specs > 0);
  let sorted = ref true in
  let rec walk = function
    | (a : Netsim.Trace.flow_spec) :: (b :: _ as rest) ->
      if a.Netsim.Trace.start > b.Netsim.Trace.start then sorted := false;
      walk rest
    | _ -> ()
  in
  walk specs;
  Alcotest.(check bool) "sorted by start" true !sorted;
  List.iter
    (fun (f : Netsim.Trace.flow_spec) ->
      if f.Netsim.Trace.start >= 0.2 then Alcotest.fail "flow after horizon")
    specs

let test_trace_replay_runs () =
  let sim, _net, transport = transport_net () in
  let completed = ref 0 in
  let specs =
    [
      { Netsim.Trace.start = 0.001; src = 0; dst = 3; size = 5_000; tenant = 0 };
      { Netsim.Trace.start = 0.002; src = 1; dst = 2; size = 5_000; tenant = 0 };
    ]
  in
  Netsim.Trace.replay ~sim ~transport
    ~ranker_of_tenant:(fun _ -> Sched.Ranker.pfabric ())
    ~on_complete:(fun _ -> incr completed)
    specs;
  Engine.Sim.run sim;
  Alcotest.(check int) "trace flows completed" 2 !completed

let test_trace_replay_deterministic () =
  (* Synthesizing then replaying a trace twice gives identical FCTs. *)
  let run () =
    let sim, _net, transport = transport_net () in
    let fcts = ref [] in
    let rng = Engine.Rng.create ~seed:33 in
    let specs =
      Netsim.Trace.synthesize ~rng ~dist:(Netsim.Workload.data_mining ())
        ~num_hosts:4 ~load:0.3 ~access_rate:1e9 ~tenant:0 ~until:0.05
    in
    Netsim.Trace.replay ~sim ~transport
      ~ranker_of_tenant:(fun _ -> Sched.Ranker.pfabric ())
      ~on_complete:(fun r -> fcts := Netsim.Transport.fct r :: !fcts)
      specs;
    Engine.Sim.run ~until:0.5 sim;
    !fcts
  in
  let a = run () in
  let b = run () in
  Alcotest.(check (list (float 1e-12))) "bit-identical replays" a b

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let test_bucketing () =
  Alcotest.(check bool) "small" true (Netsim.Metrics.bucket_of_size 50_000 = Netsim.Metrics.Small);
  Alcotest.(check bool) "boundary 100KB is medium" true
    (Netsim.Metrics.bucket_of_size 100_000 = Netsim.Metrics.Medium);
  Alcotest.(check bool) "boundary 1MB is large" true
    (Netsim.Metrics.bucket_of_size 1_000_000 = Netsim.Metrics.Large);
  Alcotest.(check bool) "large" true (Netsim.Metrics.bucket_of_size 5_000_000 = Netsim.Metrics.Large)

let test_metrics_record () =
  let m = Netsim.Metrics.create () in
  let record size fct =
    Netsim.Metrics.record m
      {
        Netsim.Transport.flow_id = 0;
        tenant = 0;
        size;
        started_at = 0.;
        completed_at = fct;
      }
  in
  record 10_000 0.001;
  record 20_000 0.003;
  record 2_000_000 0.050;
  Alcotest.(check int) "completed" 3 (Netsim.Metrics.completed m);
  Alcotest.(check (float 1e-9)) "small mean ms" 2.0
    (Netsim.Metrics.mean_fct_ms m Netsim.Metrics.Small);
  Alcotest.(check (float 1e-9)) "large mean ms" 50.0
    (Netsim.Metrics.mean_fct_ms m Netsim.Metrics.Large);
  Alcotest.(check bool) "medium empty" true
    (Float.is_nan (Netsim.Metrics.mean_fct_ms m Netsim.Metrics.Medium))

let () =
  Alcotest.run "netsim"
    [
      ( "topology",
        [
          Alcotest.test_case "basic" `Quick test_topology_basic;
          Alcotest.test_case "invalid" `Quick test_topology_invalid;
          Alcotest.test_case "leaf-spine shape" `Quick test_leaf_spine_shape;
          Alcotest.test_case "leaf-spine rates" `Quick test_leaf_spine_rates;
        ] );
      ( "routing",
        [
          Alcotest.test_case "path valid" `Quick test_routing_path_valid;
          Alcotest.test_case "ecmp spread" `Quick test_routing_ecmp_spread;
          Alcotest.test_case "flow sticky" `Quick test_routing_flow_sticky;
          Alcotest.test_case "candidates" `Quick test_routing_candidates;
          Alcotest.test_case "ecmp balance" `Quick test_routing_ecmp_balance;
        ] );
      ( "net",
        [
          Alcotest.test_case "delivery timing" `Quick test_net_delivery_timing;
          Alcotest.test_case "serialization" `Quick test_net_store_and_forward_serialization;
          Alcotest.test_case "drop counting" `Quick test_net_drop_counting;
          Alcotest.test_case "preprocess hook" `Quick test_net_preprocess_hook;
          Alcotest.test_case "switch inject rejected" `Quick test_net_inject_from_switch_rejected;
          Alcotest.test_case "pifo ports reorder" `Quick test_net_pifo_ports_reorder;
          Alcotest.test_case "on_dequeue feedback" `Quick test_net_on_dequeue_feedback;
          Alcotest.test_case "wire keeps transmit order" `Quick test_net_wire_order;
        ] );
      ( "shaper",
        [
          Alcotest.test_case "limits rate" `Quick test_shaper_limits_rate;
          Alcotest.test_case "allows burst" `Quick test_shaper_allows_burst;
          Alcotest.test_case "idles with backlog" `Quick test_shaper_idles_with_backlog;
          Alcotest.test_case "unshaped unaffected" `Quick test_shaper_unshaped_ports_unaffected;
          Alcotest.test_case "validation" `Quick test_shaper_validation;
        ] );
      ( "transport",
        [
          Alcotest.test_case "flow completes" `Quick test_transport_single_flow_completes;
          Alcotest.test_case "tiny flow" `Quick test_transport_tiny_flow;
          Alcotest.test_case "active accounting" `Quick test_transport_active_flow_accounting;
          Alcotest.test_case "recovers from drops" `Quick test_transport_recovers_from_drops;
          Alcotest.test_case "retires completed flows" `Quick
            test_transport_retires_completed_flows;
          Alcotest.test_case "concurrent flows" `Quick test_transport_concurrent_flows_share;
          Alcotest.test_case "srpt under contention" `Quick test_transport_srpt_under_contention;
          Alcotest.test_case "cbr throughput+deadlines" `Quick test_cbr_throughput_and_deadlines;
          Alcotest.test_case "cbr until" `Quick test_cbr_respects_until;
          Alcotest.test_case "validation" `Quick test_transport_validation;
          Alcotest.test_case "window one" `Quick test_transport_window_one;
          Alcotest.test_case "bidirectional" `Quick test_transport_bidirectional_pair;
        ] );
      ( "workload",
        [
          Alcotest.test_case "data-mining shape" `Quick test_data_mining_shape;
          Alcotest.test_case "arrival rate" `Quick test_flow_arrival_rate;
          Alcotest.test_case "poisson open loop" `Quick test_poisson_open_loop_generates;
          Alcotest.test_case "cbr tenant" `Quick test_cbr_tenant_spawns_flows;
        ] );
      ( "fluid",
        [
          Alcotest.test_case "rtt" `Quick test_fluid_rtt;
          Alcotest.test_case "bandwidth limited" `Quick test_fluid_bandwidth_limited;
          Alcotest.test_case "window limited" `Quick test_fluid_window_limited;
          Alcotest.test_case "load slows" `Quick test_fluid_load_slows;
          Alcotest.test_case "invalid" `Quick test_fluid_invalid;
          Alcotest.test_case "vs packet sim (1MB)" `Quick test_fluid_vs_packet_sim;
          Alcotest.test_case "vs packet sim (20KB)" `Quick test_fluid_vs_packet_sim_small;
        ] );
      ( "trace",
        [
          Alcotest.test_case "round trip" `Quick test_trace_round_trip;
          Alcotest.test_case "parse errors" `Quick test_trace_parse_errors;
          Alcotest.test_case "parse tabs" `Quick test_trace_parse_tabs;
          Alcotest.test_case "save/load" `Quick test_trace_save_load;
          Alcotest.test_case "synthesize sorted" `Quick test_trace_synthesize_sorted;
          Alcotest.test_case "replay runs" `Quick test_trace_replay_runs;
          Alcotest.test_case "replay deterministic" `Quick test_trace_replay_deterministic;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "bucketing" `Quick test_bucketing;
          Alcotest.test_case "record" `Quick test_metrics_record;
        ] );
    ]
