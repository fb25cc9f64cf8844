(* Multi-objective scheduling (§5) and non-work-conserving tenants.

   One tenant wants small flows fast *and* deadlines met: we blend pFabric
   and EDF with the `weighted` combinator, and compare against each pure
   policy on the same traffic through a PIFO.  Then we rate-limit a
   tenant's uplink with a token-bucket shaper and watch it pace.

   Run with:  dune exec examples/multi_objective.exe *)

let pfabric_range = (0, 1000)

let edf_range = (0, 1000)

(* Synthetic packets spanning both axes: remaining size and deadline. *)
let population () =
  Sched.Packet.reset_uid_counter 0;
  List.concat_map
    (fun remaining ->
      List.map
        (fun deadline ->
          Sched.Packet.make ~flow:remaining ~size:1500
            ~remaining:(remaining * 100_000)
            ~deadline:(float_of_int deadline /. 1000.)
            ())
        [ 50; 400; 900 ])
    [ 1; 5; 9 ]

let service_order ranker =
  let pifo = Sched.Bucket_queue.create ~name:"pifo" ~capacity_pkts:64 () in
  List.iter
    (fun p ->
      ignore (Sched.Ranker.tag ranker ~now:0. p);
      ignore (pifo.Sched.Qdisc.enqueue p))
    (population ());
  List.map
    (fun (p : Sched.Packet.t) ->
      Printf.sprintf "(%dKB,%3.0fms)" (p.Sched.Packet.remaining / 1000)
        (1e3 *. p.Sched.Packet.deadline))
    (Sched.Qdisc.drain pifo)

let () =
  let pfabric = Sched.Ranker.pfabric ~unit_bytes:1000 () in
  let edf = Sched.Ranker.edf ~unit_seconds:1e-3 ~horizon:1.0 () in
  let blend =
    Sched.Ranker.weighted
      ~components:[ (Sched.Ranker.pfabric ~unit_bytes:1000 (), pfabric_range, 1.0);
                    (Sched.Ranker.edf ~unit_seconds:1e-3 ~horizon:1.0 (), edf_range, 1.0) ]
      ()
  in
  let lex =
    Sched.Ranker.lexicographic
      ~primary:(Sched.Ranker.pfabric ~unit_bytes:1000 (), pfabric_range)
      ~secondary:(Sched.Ranker.edf ~unit_seconds:1e-3 ~horizon:1.0 (), edf_range)
      ()
  in
  Format.printf "service order of 9 packets (remaining KB, deadline ms):@.@.";
  List.iter
    (fun (name, ranker) ->
      Format.printf "%-22s: %s@." name
        (String.concat " " (service_order ranker)))
    [
      ("pure pFabric", pfabric);
      ("pure EDF", edf);
      ("weighted 50/50 blend", blend);
      ("lex (size, deadline)", lex);
    ];
  Format.printf
    "@.pFabric ignores deadlines, EDF ignores sizes; the blend trades both \
     off; the lexicographic form keeps strict size order and uses \
     deadlines only to break ties.@.";

  (* Non-work-conserving: shape one host's uplink to 100 Mb/s. *)
  let topo = Netsim.Topology.create ~num_hosts:2 ~num_switches:1 in
  ignore (Netsim.Topology.add_duplex topo ~a:0 ~b:2 ~rate:1e9 ~delay:1e-6);
  ignore (Netsim.Topology.add_duplex topo ~a:1 ~b:2 ~rate:1e9 ~delay:1e-6);
  let routing = Netsim.Routing.compute topo in
  let sim = Engine.Sim.create () in
  (* Delivered bytes per 1 ms bucket, one slot per bucket up to [until]. *)
  let until = 0.2 and bucket = 0.001 in
  let slots = int_of_float (until /. bucket) + 1 in
  let store =
    Engine.Tsdb.create ~tiers:[ { Engine.Tsdb.resolution = bucket; slots } ] ()
  in
  let timeline = Engine.Tsdb.series store ~kind:Engine.Tsdb.Gauge "delivered" in
  let net =
    Netsim.Net.create ~sim ~topo ~routing
      ~make_qdisc:(fun _ -> Sched.Fifo_queue.create ~capacity_pkts:4000 ())
      ~shaper_of:(fun l ->
        if l.Netsim.Topology.id = 0 then
          Some { Netsim.Net.shaper_rate = 12.5e6; shaper_burst = 15_000. }
        else None)
      ~deliver:(fun p ->
        Engine.Tsdb.observe store timeline ~time:(Engine.Sim.now sim)
          (float_of_int p.Sched.Packet.size))
      ()
  in
  (* Offer 2x the shaped rate for 10 ms. *)
  let rec blast () =
    if Engine.Sim.now sim < 0.01 then begin
      Netsim.Net.inject net
        (Sched.Packet.make ~src:0 ~dst:1 ~flow:1 ~size:1518
           ~created_at:(Engine.Sim.now sim) ());
      ignore (Engine.Sim.schedule_after sim ~delay:(1518. *. 8. /. 200e6) blast)
    end
  in
  blast ();
  Engine.Sim.run ~until sim;
  Format.printf
    "@.shaped uplink (100 Mb/s token bucket, 200 Mb/s offered for 10 ms) — \
     delivered bytes per ms:@.%a@."
    Engine.Tsdb.pp_sums
    (Option.get
       (Engine.Tsdb.query store ~name:"delivered" ~start:0.
          ~stop:(float_of_int slots *. bucket) ()))
