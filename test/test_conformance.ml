(* Tests for the conformance subsystem: the seeded scenario generator,
   the ideal-PIFO oracle, the differential runner, the shrinker, and the
   generator-driven property tests the subsystem makes possible. *)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" (Qvisor.Error.to_string e)

let scenario_of_seed seed = Conformance.Scenario.generate ~seed

(* ------------------------------------------------------------------ *)
(* Generator                                                          *)
(* ------------------------------------------------------------------ *)

let test_generator_deterministic () =
  List.iter
    (fun seed ->
      let a = scenario_of_seed seed and b = scenario_of_seed seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d reproduces" seed)
        true
        (Conformance.Scenario.equal a b))
    [ 0; 1; 42; 4096 ]

let test_generator_valid_specs () =
  (* Every generated scenario must synthesize: the generator is not
     allowed to emit specs the synthesizer rejects. *)
  for seed = 0 to 199 do
    let sc = scenario_of_seed seed in
    ignore (ok (Conformance.Scenario.plan sc))
  done

let test_generator_shape () =
  let sc = scenario_of_seed 42 in
  let n_events = Conformance.Scenario.num_events sc in
  let n_enq = Conformance.Scenario.num_enqueues sc in
  Alcotest.(check bool) "has events" true (n_events >= 16);
  Alcotest.(check bool) "has enqueues" true (n_enq > 0);
  Alcotest.(check bool) "has dequeues" true (n_events > n_enq);
  Alcotest.(check bool)
    "capacity in range" true
    (sc.Conformance.Scenario.capacity_pkts >= 4
    && sc.Conformance.Scenario.capacity_pkts <= 64)

let test_scenario_json_roundtrip () =
  (* Derived seeds are full 63-bit values — they must survive the wire
     format exactly (a JSON number would round through a float). *)
  let seeds =
    List.init 50 Fun.id
    @ List.init 4 (fun i -> Engine.Rng.derive ~seed:42 i)
  in
  List.iter
    (fun seed ->
      let sc = scenario_of_seed seed in
    let json = Conformance.Scenario.to_json sc in
    (* Through the wire format and back. *)
    let reparsed =
      match Engine.Json.of_string (Engine.Json.to_string json) with
      | Ok j -> j
      | Error e -> Alcotest.failf "json re-parse: %s" e
    in
      let sc' = ok (Conformance.Scenario.of_json reparsed) in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d round-trips" seed)
        true
        (Conformance.Scenario.equal sc sc'))
    seeds

(* ------------------------------------------------------------------ *)
(* Oracle self-consistency: oracle vs the real PIFO backend            *)
(* ------------------------------------------------------------------ *)

let replay_ideal sc =
  let plan = ok (Conformance.Scenario.plan sc) in
  let qdisc =
    ok
      (Qvisor.Deploy.instantiate ~plan
         (Qvisor.Deploy.Ideal_pifo
            { capacity_pkts = sc.Conformance.Scenario.capacity_pkts }))
  in
  ( Conformance.Oracle.run ~plan sc,
    Conformance.Differential.replay ~plan ~qdisc sc )

let test_oracle_matches_pifo_200_cases () =
  (* The committed self-consistency claim: on 200 seeded cases the oracle
     and the production exact backend (the min-max-heap PIFO, via
     [Deploy.Ideal_pifo]) agree byte-for-byte (served order and drop
     decisions). *)
  for seed = 0 to 199 do
    let sc = scenario_of_seed seed in
    let oracle, rep = replay_ideal sc in
    let v = Conformance.Differential.compare_to_oracle oracle rep in
    if not v.Conformance.Differential.matches then
      Alcotest.failf "seed %d: oracle vs bucket queue diverged: %s" seed
        (Option.value v.Conformance.Differential.divergence ~default:"?")
  done

let test_oracle_served_sorted_after_batch () =
  (* Rearranged so every enqueue precedes every dequeue, the oracle's
     served sequence must be globally (rank, sid)-sorted — no later
     arrival can jump ahead once nothing else arrives. *)
  for seed = 0 to 49 do
    let sc = scenario_of_seed seed in
    let enqs, n_deq =
      List.fold_left
        (fun (enqs, d) ev ->
          match ev with
          | Conformance.Scenario.Enqueue _ -> (ev :: enqs, d)
          | Conformance.Scenario.Dequeue -> (enqs, d + 1))
        ([], 0) sc.Conformance.Scenario.events
    in
    let batched =
      {
        sc with
        Conformance.Scenario.events =
          List.rev enqs
          @ List.init (max n_deq (List.length enqs)) (fun _ ->
                Conformance.Scenario.Dequeue);
      }
    in
    let plan = ok (Conformance.Scenario.plan batched) in
    let outcome = Conformance.Oracle.run ~plan batched in
    let keys =
      List.map
        (fun it -> (it.Conformance.Oracle.rank, it.Conformance.Oracle.sid))
        outcome.Conformance.Oracle.served
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d batched serve order sorted" seed)
      true
      (List.sort compare keys = keys)
  done

(* ------------------------------------------------------------------ *)
(* Generator-driven invariants on the scheduler substrate              *)
(* ------------------------------------------------------------------ *)

(* Feed a scenario's raw labels straight into a qdisc (no plan), applying
   dequeues as they come; return (accepted, served, dropped, final). *)
let drive_qdisc q sc =
  let accepted = ref 0 in
  let served = ref [] in
  let dropped = ref 0 in
  List.iter
    (fun ev ->
      match ev with
      | Conformance.Scenario.Enqueue { tenant; label; size } ->
        let p = Sched.Packet.make ~tenant ~rank:label ~flow:tenant ~size () in
        let victims = q.Sched.Qdisc.enqueue p in
        if Sched.Qdisc.accepted q p victims then incr accepted;
        dropped := !dropped + List.length victims
      | Conformance.Scenario.Dequeue -> (
        match q.Sched.Qdisc.dequeue () with
        | None -> ()
        | Some p -> served := p :: !served))
    sc.Conformance.Scenario.events;
  (!accepted, List.rev !served, !dropped)

let test_pifo_heap_order_under_interleavings () =
  (* After any interleaving of enqueues and dequeues, draining the heap
     PIFO yields (rank, uid)-sorted output (packets are made in arrival
     order here), and packet conservation holds. *)
  for seed = 0 to 99 do
    let sc = scenario_of_seed seed in
    let q =
      Sched.Bucket_queue.create
        ~capacity_pkts:sc.Conformance.Scenario.capacity_pkts ()
    in
    let accepted, served, dropped = drive_qdisc q sc in
    let rest = Sched.Qdisc.drain q in
    let keys =
      List.map (fun p -> (p.Sched.Packet.rank, p.Sched.Packet.uid)) rest
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d drain sorted" seed)
      true
      (List.sort compare keys = keys);
    (* Conservation: every enqueue was accepted or dropped; every accepted
       packet was either served or still queued.  Eviction makes these two
       accountings differ, so check totals against enqueue count. *)
    let enq = Conformance.Scenario.num_enqueues sc in
    Alcotest.(check int)
      (Printf.sprintf "seed %d conservation" seed)
      enq
      (List.length served + List.length rest + dropped);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d accepted bound" seed)
      true (accepted >= List.length served + List.length rest)
  done

let test_sp_pifo_bound_monotonicity () =
  (* SP-PIFO's per-queue bounds must stay non-decreasing from the
     highest-priority queue down, across arbitrary push-up/push-down
     sequences. *)
  for seed = 0 to 99 do
    let sc = scenario_of_seed seed in
    let q, bounds =
      Sched.Sp_pifo.create_with_bounds ~num_queues:8
        ~queue_capacity_pkts:sc.Conformance.Scenario.capacity_pkts ()
    in
    List.iter
      (fun ev ->
        (match ev with
        | Conformance.Scenario.Enqueue { tenant; label; size } ->
          let p =
            Sched.Packet.make ~tenant ~rank:label ~flow:tenant ~size ()
          in
          ignore (q.Sched.Qdisc.enqueue p)
        | Conformance.Scenario.Dequeue -> ignore (q.Sched.Qdisc.dequeue ()));
        let b = Array.to_list (bounds ()) in
        if List.sort compare b <> b then
          Alcotest.failf "seed %d: SP-PIFO bounds not monotone" seed)
      sc.Conformance.Scenario.events
  done

(* ------------------------------------------------------------------ *)
(* Differential runner                                                *)
(* ------------------------------------------------------------------ *)

let test_run_cases_exact_backend_conformant () =
  let res =
    Conformance.Differential.run_cases ~jobs:2 ~seed:42 ~cases:50 ()
  in
  Alcotest.(check int) "no errors" 0 (List.length res.Conformance.Differential.errors);
  Alcotest.(check int) "no failures" 0
    (List.length res.Conformance.Differential.failures);
  let ideal = List.hd res.Conformance.Differential.stats in
  Alcotest.(check string) "first backend" "ideal-pifo"
    ideal.Conformance.Differential.backend;
  Alcotest.(check int) "ideal exact on all cases" 50
    ideal.Conformance.Differential.exact_cases;
  Alcotest.(check int) "ideal has zero inversions" 0
    ideal.Conformance.Differential.inversions

(* sp-bank-8q's band-aware deploy (QVISOR's strict-tier band allocation)
   keeps every [>>] edge: on CI's fleet it may reorder within a band,
   never across a strict edge. *)
let test_sp_bank_keeps_strict_edges () =
  let res =
    Conformance.Differential.run_cases ~jobs:2 ~seed:42 ~cases:200 ()
  in
  match
    List.find_opt
      (fun (s : Conformance.Differential.backend_stats) ->
        s.Conformance.Differential.backend = "sp-bank-8q")
      res.Conformance.Differential.stats
  with
  | None -> Alcotest.fail "sp-bank-8q is not in the standard fleet"
  | Some s ->
    Alcotest.(check int) "every case ran" 200 s.Conformance.Differential.cases;
    Alcotest.(check int) "no strict >> violation" 0
      s.Conformance.Differential.strict_violations

let test_run_cases_jobs_invariant () =
  let strip (r : Conformance.Differential.run_result) =
    ( r.Conformance.Differential.total_events,
      r.Conformance.Differential.stats,
      r.Conformance.Differential.failures,
      r.Conformance.Differential.errors )
  in
  let r1 = Conformance.Differential.run_cases ~jobs:1 ~seed:7 ~cases:24 () in
  let r4 = Conformance.Differential.run_cases ~jobs:4 ~seed:7 ~cases:24 () in
  Alcotest.(check bool) "jobs=1 and jobs=4 agree" true (strip r1 = strip r4)

let test_injected_fault_detected () =
  (* Each injected fault must be caught by the oracle within a small
     seeded fleet. *)
  List.iter
    (fun fault ->
      let backends =
        Conformance.Differential.standard_backends ()
        @ [ Conformance.Differential.faulty_backend fault ]
      in
      let res =
        Conformance.Differential.run_cases ~jobs:2 ~backends ~seed:42
          ~cases:50 ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "fault %s detected" (Conformance.Fault.to_string fault))
        true
        (res.Conformance.Differential.failures <> []);
      (* and every failure names the injected backend, not a real one *)
      List.iter
        (fun f ->
          Alcotest.(check string) "failure is the injected backend"
            ("injected:" ^ Conformance.Fault.to_string fault)
            f.Conformance.Differential.backend)
        res.Conformance.Differential.failures)
    Conformance.Fault.all

(* An exact PIFO in every respect but the tie contract: equal ranks go by
   uid, not by port arrival.  Replay makes packets out of arrival order,
   so the fleet must catch it. *)
let uid_keyed_pifo ~capacity_pkts =
  let queue = ref [] in
  let key (p : Sched.Packet.t) = (p.Sched.Packet.rank, p.Sched.Packet.uid) in
  let insert p =
    queue := List.merge (fun a b -> compare (key a) (key b)) !queue [ p ]
  in
  let enqueue_drop p on_drop =
    if List.length !queue < capacity_pkts then insert p
    else
      let worst = List.nth !queue (capacity_pkts - 1) in
      if p.Sched.Packet.rank >= worst.Sched.Packet.rank then on_drop p
      else begin
        queue := List.filter (fun q -> q != worst) !queue;
        insert p;
        on_drop worst
      end
  in
  let dequeue () =
    match !queue with
    | [] -> None
    | p :: rest ->
      queue := rest;
      Some p
  in
  Sched.Qdisc.make ~name:"uid-pifo" ~enqueue_drop ~dequeue
    ~peek:(fun () -> List.nth_opt !queue 0)
    ~length:(fun () -> List.length !queue)
    ~bytes:(fun () -> 0)
    ~drops:(fun () -> 0)

let test_uid_keyed_pifo_fails_fleet () =
  let backend =
    {
      Conformance.Differential.bname = "uid-pifo";
      expect_exact = true;
      make = (fun ~plan:_ ~capacity_pkts -> Ok (uid_keyed_pifo ~capacity_pkts));
    }
  in
  let res =
    Conformance.Differential.run_cases ~jobs:2 ~backends:[ backend ] ~seed:42
      ~cases:200 ()
  in
  let exact =
    (List.hd res.Conformance.Differential.stats)
      .Conformance.Differential.exact_cases
  in
  Alcotest.(check bool)
    (Printf.sprintf "uid-keyed pifo exact on %d of 200 cases" exact)
    true
    (res.Conformance.Differential.failures <> [] && exact < 200)

let test_shrinker_minimizes_injected_fault () =
  List.iter
    (fun fault ->
      let backend = Conformance.Differential.faulty_backend fault in
      let fails = Conformance.Differential.fails_oracle ~backend in
      (* Find the first failing seeded case, as the CLI does. *)
      let rec first_failing i =
        if i >= 200 then Alcotest.failf "no failing case found"
        else begin
          let sc = scenario_of_seed (Engine.Rng.derive ~seed:42 i) in
          if fails sc then sc else first_failing (i + 1)
        end
      in
      let sc = first_failing 0 in
      let small = Conformance.Shrink.minimize ~fails sc in
      Alcotest.(check bool)
        (Printf.sprintf "%s reproducer still fails"
           (Conformance.Fault.to_string fault))
        true (fails small);
      let n = Conformance.Scenario.num_events small in
      if n > 20 then
        Alcotest.failf "fault %s shrank to %d events (> 20)"
          (Conformance.Fault.to_string fault)
          n;
      (* The reproducer must survive serialization. *)
      let json = Conformance.Scenario.to_json small in
      let small' =
        ok
          (Conformance.Scenario.of_json
             (Result.get_ok (Engine.Json.of_string (Engine.Json.to_string json))))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s reproducer replayable after round-trip"
           (Conformance.Fault.to_string fault))
        true (fails small'))
    Conformance.Fault.all

let test_strict_violation_scoring () =
  (* A hand-built strict scenario on a FIFO-degenerate backend: T0 >> T1,
     enqueue T1 first then T0, dequeue twice.  A FIFO serves T1 while T0
     waits — exactly one violation on the (T0, T1) edge. *)
  let tenants =
    [
      Qvisor.Tenant.make ~rank_lo:0 ~rank_hi:100 ~id:0 ~name:"T0" ();
      Qvisor.Tenant.make ~rank_lo:0 ~rank_hi:100 ~id:1 ~name:"T1" ();
    ]
  in
  let policy = Qvisor.Policy.parse_exn "T0 >> T1" in
  let sc =
    {
      Conformance.Scenario.seed = 0;
      tenants;
      policy;
      config = Qvisor.Synthesizer.default_config;
      capacity_pkts = 8;
      events =
        [
          Conformance.Scenario.Enqueue { tenant = 1; label = 50; size = 100 };
          Conformance.Scenario.Enqueue { tenant = 0; label = 50; size = 100 };
          Conformance.Scenario.Dequeue;
          Conformance.Scenario.Dequeue;
        ];
    }
  in
  let plan = ok (Conformance.Scenario.plan sc) in
  let fifo = Sched.Fifo_queue.create ~capacity_pkts:8 () in
  let rep = Conformance.Differential.replay ~plan ~qdisc:fifo sc in
  Alcotest.(check int) "one inversion" 1 rep.Conformance.Differential.inversions;
  let total_viol =
    List.fold_left (fun a (_, c) -> a + c) 0
      rep.Conformance.Differential.violations
  in
  Alcotest.(check int) "one strict violation" 1 total_viol;
  (* The oracle, by contrast, serves T0 first. *)
  let oracle = Conformance.Oracle.run ~plan sc in
  let first = List.hd oracle.Conformance.Oracle.served in
  Alcotest.(check int) "oracle serves T0 first" 0
    first.Conformance.Oracle.tenant

let test_fault_qdisc_basics () =
  (* lifo-ties really is LIFO among equals. *)
  let q = Conformance.Fault.qdisc Conformance.Fault.Lifo_ties ~capacity_pkts:4 in
  let mk r = Sched.Packet.make ~rank:r ~flow:0 ~size:100 () in
  let a = mk 5 and b = mk 5 in
  ignore (q.Sched.Qdisc.enqueue a);
  ignore (q.Sched.Qdisc.enqueue b);
  let first = Option.get (q.Sched.Qdisc.dequeue ()) in
  Alcotest.(check int) "newest equal-rank first" b.Sched.Packet.uid
    first.Sched.Packet.uid;
  (* drop-newest never evicts. *)
  let q = Conformance.Fault.qdisc Conformance.Fault.Drop_newest ~capacity_pkts:1 in
  ignore (q.Sched.Qdisc.enqueue (mk 10));
  let dropped = q.Sched.Qdisc.enqueue (mk 1) in
  Alcotest.(check int) "better arrival tail-dropped" 1 (List.length dropped)

let () =
  Alcotest.run "conformance"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "valid specs" `Quick test_generator_valid_specs;
          Alcotest.test_case "shape" `Quick test_generator_shape;
          Alcotest.test_case "json round-trip" `Quick
            test_scenario_json_roundtrip;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "matches bucket queue on 200 cases" `Quick
            test_oracle_matches_pifo_200_cases;
          Alcotest.test_case "serves in (rank, sid) order" `Quick
            test_oracle_served_sorted_after_batch;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "pifo heap order under interleavings" `Quick
            test_pifo_heap_order_under_interleavings;
          Alcotest.test_case "sp-pifo bound monotonicity" `Quick
            test_sp_pifo_bound_monotonicity;
        ] );
      ( "differential",
        [
          Alcotest.test_case "exact backend conformant" `Quick
            test_run_cases_exact_backend_conformant;
          Alcotest.test_case "sp-bank-8q keeps >> edges" `Quick
            test_sp_bank_keeps_strict_edges;
          Alcotest.test_case "jobs-invariant results" `Quick
            test_run_cases_jobs_invariant;
          Alcotest.test_case "injected faults detected" `Quick
            test_injected_fault_detected;
          Alcotest.test_case "uid-keyed pifo fails the fleet" `Quick
            test_uid_keyed_pifo_fails_fleet;
          Alcotest.test_case "strict violation scoring" `Quick
            test_strict_violation_scoring;
          Alcotest.test_case "fault qdisc basics" `Quick
            test_fault_qdisc_basics;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "minimizes injected faults to <= 20 events"
            `Quick test_shrinker_minimizes_injected_fault;
        ] );
    ]
