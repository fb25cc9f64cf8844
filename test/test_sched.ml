(* Tests for the scheduler substrate: Packet, Qdisc helpers, FIFO, PIFO,
   SP bank, SP-PIFO, AIFO, and the tenant rank functions. *)

let mk ?(tenant = 0) ?(flow = 0) ?(size = 1000) ?remaining ?deadline
    ?(created_at = 0.) ?(rank = 0) () =
  Sched.Packet.make ~tenant ~flow ~size ?remaining ?deadline ~created_at ~rank ()

let ranks_of packets = List.map (fun p -> p.Sched.Packet.rank) packets

let uids_of packets = List.map (fun p -> p.Sched.Packet.uid) packets

(* ------------------------------------------------------------------ *)
(* Packet                                                             *)
(* ------------------------------------------------------------------ *)

let test_packet_defaults () =
  let p = Sched.Packet.make ~flow:1 ~size:1458 () in
  Alcotest.(check int) "payload excludes headers" 1400 p.Sched.Packet.payload;
  Alcotest.(check int) "remaining defaults to payload" 1400 p.Sched.Packet.remaining;
  Alcotest.(check bool) "no deadline" true (p.Sched.Packet.deadline = infinity)

let test_packet_uids_unique () =
  let a = mk () and b = mk () in
  Alcotest.(check bool) "distinct uids" true (a.Sched.Packet.uid <> b.Sched.Packet.uid)

let test_packet_compare_rank () =
  Sched.Packet.reset_uid_counter 0;
  let a = mk ~rank:5 () in
  let b = mk ~rank:3 () in
  let c = mk ~rank:5 () in
  Alcotest.(check bool) "lower rank first" true (Sched.Packet.compare_rank b a < 0);
  Alcotest.(check bool) "tie broken by arrival" true
    (Sched.Packet.compare_rank a c < 0)

(* ------------------------------------------------------------------ *)
(* FIFO                                                               *)
(* ------------------------------------------------------------------ *)

let test_fifo_fifo_order () =
  let q = Sched.Fifo_queue.create ~capacity_pkts:10 () in
  let ps = List.init 5 (fun i -> mk ~rank:(10 - i) ()) in
  List.iter (fun p -> ignore (q.Sched.Qdisc.enqueue p)) ps;
  let out = Sched.Qdisc.drain q in
  Alcotest.(check (list int)) "FIFO ignores rank" (uids_of ps) (uids_of out)

let test_fifo_tail_drop () =
  let q = Sched.Fifo_queue.create ~capacity_pkts:2 () in
  let a = mk () and b = mk () and c = mk () in
  Alcotest.(check int) "a fits" 0 (List.length (q.Sched.Qdisc.enqueue a));
  Alcotest.(check int) "b fits" 0 (List.length (q.Sched.Qdisc.enqueue b));
  let dropped = q.Sched.Qdisc.enqueue c in
  Alcotest.(check (list int)) "c dropped" [ c.Sched.Packet.uid ] (uids_of dropped);
  Alcotest.(check int) "drop counter" 1 (q.Sched.Qdisc.drops ());
  Alcotest.(check int) "length" 2 (q.Sched.Qdisc.length ())

let test_fifo_bytes_accounting () =
  let q = Sched.Fifo_queue.create ~capacity_pkts:10 () in
  ignore (q.Sched.Qdisc.enqueue (mk ~size:100 ()));
  ignore (q.Sched.Qdisc.enqueue (mk ~size:200 ()));
  Alcotest.(check int) "bytes" 300 (q.Sched.Qdisc.bytes ());
  ignore (q.Sched.Qdisc.dequeue ());
  Alcotest.(check int) "bytes after dequeue" 200 (q.Sched.Qdisc.bytes ())

let test_fifo_invalid_capacity () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero capacity" true
    (raises (fun () -> ignore (Sched.Fifo_queue.create ~capacity_pkts:0 ())))

(* ------------------------------------------------------------------ *)
(* PIFO                                                               *)
(* ------------------------------------------------------------------ *)

let test_pifo_rank_order () =
  let q = Sched.Pifo_queue.create ~capacity_pkts:10 () in
  List.iter
    (fun r -> ignore (q.Sched.Qdisc.enqueue (mk ~rank:r ())))
    [ 5; 1; 9; 3; 7 ];
  Alcotest.(check (list int)) "sorted by rank" [ 1; 3; 5; 7; 9 ]
    (ranks_of (Sched.Qdisc.drain q))

let test_pifo_stable_ties () =
  Sched.Packet.reset_uid_counter 0;
  let q = Sched.Pifo_queue.create ~capacity_pkts:10 () in
  let ps = List.init 5 (fun _ -> mk ~rank:4 ()) in
  List.iter (fun p -> ignore (q.Sched.Qdisc.enqueue p)) ps;
  Alcotest.(check (list int)) "FIFO among equal ranks" (uids_of ps)
    (uids_of (Sched.Qdisc.drain q))

let test_pifo_paper_example () =
  (* Fig. 3's scheduler: offered ranks 1,3,8,7,9 → served 1,3,7,8,9. *)
  let q = Sched.Pifo_queue.create ~capacity_pkts:16 () in
  List.iter
    (fun r -> ignore (q.Sched.Qdisc.enqueue (mk ~rank:r ())))
    [ 1; 3; 8; 7; 9 ];
  Alcotest.(check (list int)) "PIFO sorts" [ 1; 3; 7; 8; 9 ]
    (ranks_of (Sched.Qdisc.drain q))

let test_pifo_worst_eviction () =
  let q = Sched.Pifo_queue.create ~capacity_pkts:3 () in
  let worst = mk ~rank:100 () in
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:5 ()));
  ignore (q.Sched.Qdisc.enqueue worst);
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:7 ()));
  (* Full.  A better-ranked arrival evicts the worst packet. *)
  let better = mk ~rank:1 () in
  let dropped = q.Sched.Qdisc.enqueue better in
  Alcotest.(check (list int)) "worst evicted" [ worst.Sched.Packet.uid ]
    (uids_of dropped);
  Alcotest.(check (list int)) "queue keeps best three" [ 1; 5; 7 ]
    (ranks_of (Sched.Qdisc.drain q))

let test_pifo_worse_arrival_dropped () =
  let q = Sched.Pifo_queue.create ~capacity_pkts:2 () in
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:1 ()));
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:2 ()));
  let worse = mk ~rank:50 () in
  let dropped = q.Sched.Qdisc.enqueue worse in
  Alcotest.(check (list int)) "arrival dropped" [ worse.Sched.Packet.uid ]
    (uids_of dropped);
  Alcotest.(check int) "drops counted" 1 (q.Sched.Qdisc.drops ())

let test_pifo_equal_rank_full_drops_arrival () =
  (* An arrival equal to the worst must not evict it (no churn). *)
  let q = Sched.Pifo_queue.create ~capacity_pkts:1 () in
  let first = mk ~rank:5 () in
  ignore (q.Sched.Qdisc.enqueue first);
  let second = mk ~rank:5 () in
  let dropped = q.Sched.Qdisc.enqueue second in
  Alcotest.(check (list int)) "newcomer dropped" [ second.Sched.Packet.uid ]
    (uids_of dropped);
  Alcotest.(check (list int)) "original kept" [ first.Sched.Packet.uid ]
    (uids_of (Sched.Qdisc.drain q))

let prop_pifo_sorted =
  QCheck.Test.make ~name:"pifo dequeues in rank order" ~count:300
    QCheck.(list (int_bound 1000))
    (fun ranks ->
      let q = Sched.Pifo_queue.create ~capacity_pkts:(max 1 (List.length ranks)) () in
      List.iter (fun r -> ignore (q.Sched.Qdisc.enqueue (mk ~rank:r ()))) ranks;
      let out = ranks_of (Sched.Qdisc.drain q) in
      out = List.sort compare ranks)

let prop_pifo_bounded_keeps_best =
  QCheck.Test.make ~name:"bounded pifo keeps the best-ranked packets" ~count:300
    QCheck.(pair (int_range 1 20) (list_of_size (Gen.int_range 0 60) (int_bound 100)))
    (fun (cap, ranks) ->
      let q = Sched.Pifo_queue.create ~capacity_pkts:cap () in
      List.iter (fun r -> ignore (q.Sched.Qdisc.enqueue (mk ~rank:r ()))) ranks;
      let kept = ranks_of (Sched.Qdisc.drain q) in
      let expected =
        let sorted = List.sort compare ranks in
        let rec take n = function
          | [] -> []
          | _ when n = 0 -> []
          | x :: tl -> x :: take (n - 1) tl
        in
        take cap sorted
      in
      (* Multiset equality of kept vs the cap best ranks.  Ties at the
         boundary are broken by arrival order, so only rank multisets are
         compared. *)
      List.sort compare kept = expected)

(* ------------------------------------------------------------------ *)
(* Bucket queue (the min-max-heap exact PIFO)                         *)
(* ------------------------------------------------------------------ *)

let test_bucket_rank_order () =
  let q = Sched.Bucket_queue.create ~capacity_pkts:10 () in
  List.iter
    (fun r -> ignore (q.Sched.Qdisc.enqueue (mk ~rank:r ())))
    [ 5; 1; 9; 3; 7 ];
  Alcotest.(check (list int)) "sorted by rank" [ 1; 3; 5; 7; 9 ]
    (ranks_of (Sched.Qdisc.drain q))

let test_bucket_stable_ties () =
  Sched.Packet.reset_uid_counter 0;
  let q = Sched.Bucket_queue.create ~capacity_pkts:10 () in
  let ps = List.init 5 (fun _ -> mk ~rank:4 ()) in
  List.iter (fun p -> ignore (q.Sched.Qdisc.enqueue p)) ps;
  Alcotest.(check (list int)) "FIFO among equal ranks" (uids_of ps)
    (uids_of (Sched.Qdisc.drain q))

let test_bucket_worst_eviction () =
  let q = Sched.Bucket_queue.create ~capacity_pkts:3 () in
  let worst = mk ~rank:100 () in
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:5 ()));
  ignore (q.Sched.Qdisc.enqueue worst);
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:7 ()));
  let better = mk ~rank:1 () in
  let dropped = q.Sched.Qdisc.enqueue better in
  Alcotest.(check (list int)) "worst evicted" [ worst.Sched.Packet.uid ]
    (uids_of dropped);
  Alcotest.(check (list int)) "queue keeps best three" [ 1; 5; 7 ]
    (ranks_of (Sched.Qdisc.drain q))

let test_bucket_equal_rank_full_drops_arrival () =
  (* Same no-churn rule as Pifo_queue: among a full queue's worst rank,
     the newest packet is the eviction victim, so an equal-rank arrival
     (necessarily the newest) is tail-dropped. *)
  let q = Sched.Bucket_queue.create ~capacity_pkts:1 () in
  let first = mk ~rank:5 () in
  ignore (q.Sched.Qdisc.enqueue first);
  let second = mk ~rank:5 () in
  let dropped = q.Sched.Qdisc.enqueue second in
  Alcotest.(check (list int)) "newcomer dropped" [ second.Sched.Packet.uid ]
    (uids_of dropped);
  Alcotest.(check (list int)) "original kept" [ first.Sched.Packet.uid ]
    (uids_of (Sched.Qdisc.drain q))

let test_bucket_rank_clamping () =
  (* Out-of-range ranks order as if clamped to [0, rank_max] but the
     packets themselves are untouched. *)
  let q = Sched.Bucket_queue.create ~rank_max:15 ~capacity_pkts:10 () in
  let over = mk ~rank:1_000 () in
  let neg = mk ~rank:(-3) () in
  let mid = mk ~rank:7 () in
  List.iter (fun p -> ignore (q.Sched.Qdisc.enqueue p)) [ over; neg; mid ];
  Alcotest.(check (list int)) "clamped ordering, ranks preserved"
    [ -3; 7; 1_000 ]
    (ranks_of (Sched.Qdisc.drain q))

let test_bucket_accounting () =
  let q = Sched.Bucket_queue.create ~capacity_pkts:4 () in
  ignore (q.Sched.Qdisc.enqueue (mk ~size:100 ~rank:1 ()));
  ignore (q.Sched.Qdisc.enqueue (mk ~size:200 ~rank:2 ()));
  Alcotest.(check int) "length" 2 (q.Sched.Qdisc.length ());
  Alcotest.(check int) "bytes" 300 (q.Sched.Qdisc.bytes ());
  (match q.Sched.Qdisc.peek () with
  | Some p -> Alcotest.(check int) "peek best" 1 p.Sched.Packet.rank
  | None -> Alcotest.fail "peek on non-empty queue");
  ignore (q.Sched.Qdisc.dequeue ());
  Alcotest.(check int) "bytes after dequeue" 200 (q.Sched.Qdisc.bytes ())

let test_bucket_arrival_ties () =
  (* Equal ranks arrive in descending uid order, as packets can reach a
     fabric port: they serve in arrival order, and a full queue evicts
     the worst rank's latest arrival, not its highest uid. *)
  Sched.Packet.reset_uid_counter 0;
  let ps = List.rev (List.init 5 (fun _ -> mk ~rank:4 ())) in
  let q = Sched.Bucket_queue.create ~capacity_pkts:10 () in
  List.iter (fun p -> ignore (q.Sched.Qdisc.enqueue p)) ps;
  Alcotest.(check (list int)) "arrival order among equal ranks" (uids_of ps)
    (uids_of (Sched.Qdisc.drain q));
  let worst = List.rev (List.init 3 (fun _ -> mk ~rank:9 ())) in
  let q = Sched.Bucket_queue.create ~capacity_pkts:3 () in
  List.iter (fun p -> ignore (q.Sched.Qdisc.enqueue p)) worst;
  let dropped = q.Sched.Qdisc.enqueue (mk ~rank:1 ()) in
  Alcotest.(check (list int)) "latest arrival of the worst rank evicted"
    [ (List.nth worst 2).Sched.Packet.uid ]
    (uids_of dropped)

let test_bucket_drained_footprint () =
  (* A port's footprint returns to its fresh size after draining, however
     many ranks it has seen: a queue that saw the whole 16-bit space, its
     extremes and out-of-range ranks reads the same reachable words as
     one that saw a single rank, a small multiple of its capacity. *)
  let cap = 100 in
  let drained ranks =
    let q = Sched.Bucket_queue.create ~capacity_pkts:cap () in
    List.iter
      (fun rank ->
        ignore (q.Sched.Qdisc.enqueue (mk ~rank ()));
        if q.Sched.Qdisc.length () = cap then ignore (Sched.Qdisc.drain q))
      ranks;
    ignore (Sched.Qdisc.drain q);
    Obj.reachable_words (Obj.repr q)
  in
  let swept =
    drained
      ([ 0; 65535; -1; 65536; min_int; max_int ]
      @ List.init 4096 (fun i -> (i * 7919) land 65535))
  in
  let one = drained [ 7 ] in
  Alcotest.(check int) "same words as a queue that saw one rank" one swept;
  Alcotest.(check bool)
    (Printf.sprintf "%d reachable words <= 8 x capacity" swept)
    true (swept <= 8 * cap)

(* One (rank_max, capacity, op list) ~ one scenario: enqueue a rank, or
   dequeue.  Ranks are mostly dense (ties and evictions) with some at
   anchor-page boundaries, at the top of the rank space, negative, and
   above [rank_max]. *)
let bucket_ops_gen =
  let open QCheck.Gen in
  let rank =
    frequency
      [
        (4, int_bound 64);
        ( 1,
          oneofl
            [
              1023; 1024; 1025; 2047; 2048; 65534; 65535; 65536; 100_000; -1;
              -1024;
            ] );
      ]
  in
  QCheck.make
    ~print:QCheck.Print.(triple int int (list (option int)))
    (triple (oneofl [ 65535; 1024; 2000 ]) (int_range 1 12)
       (list_size (int_range 0 120) (option rank)))

let prop_bucket_matches_pifo_map =
  (* Heap-vs-bucket differential: on any interleaving of enqueues (dense
     ranks, forcing ties and evictions at small capacity) and dequeues,
     Bucket_queue emits byte-identical uid sequences — served and
     dropped — to the Map-based Pifo_queue fed the clamped ranks. *)
  QCheck.Test.make ~name:"bucket queue matches map-based pifo" ~count:300
    bucket_ops_gen
    (fun (rank_max, cap, ops) ->
      let bucket = Sched.Bucket_queue.create ~rank_max ~capacity_pkts:cap () in
      let map = Sched.Pifo_queue.create ~capacity_pkts:cap () in
      let run ~clamp (q : Sched.Qdisc.t) =
        (* Replay under a reset uid counter so both backends see packets
           with identical uids. *)
        Sched.Packet.reset_uid_counter 0;
        let trace = ref [] in
        List.iter
          (fun op ->
            match op with
            | Some rank ->
              let rank = if clamp then max 0 (min rank_max rank) else rank in
              q.Sched.Qdisc.enqueue_drop (mk ~rank ()) (fun d ->
                  trace := `Drop d.Sched.Packet.uid :: !trace)
            | None -> (
              match q.Sched.Qdisc.dequeue () with
              | Some p -> trace := `Serve p.Sched.Packet.uid :: !trace
              | None -> trace := `Empty :: !trace))
          ops;
        List.iter
          (fun (p : Sched.Packet.t) ->
            trace := `Serve p.Sched.Packet.uid :: !trace)
          (Sched.Qdisc.drain q);
        List.rev !trace
      in
      run ~clamp:false bucket = run ~clamp:true map)

(* ------------------------------------------------------------------ *)
(* SP bank                                                            *)
(* ------------------------------------------------------------------ *)

let classify_by_rank_div ~per_queue p = p.Sched.Packet.rank / per_queue

let test_sp_bank_strict_priority () =
  let q =
    Sched.Sp_bank.create ~num_queues:4 ~queue_capacity_pkts:10
      ~classify:(classify_by_rank_div ~per_queue:10) ()
  in
  List.iter
    (fun r -> ignore (q.Sched.Qdisc.enqueue (mk ~rank:r ())))
    [ 35; 5; 25; 15; 6 ];
  Alcotest.(check (list int)) "served by queue priority" [ 5; 6; 15; 25; 35 ]
    (ranks_of (Sched.Qdisc.drain q))

let test_sp_bank_fifo_within_queue () =
  Sched.Packet.reset_uid_counter 0;
  let q =
    Sched.Sp_bank.create ~num_queues:2 ~queue_capacity_pkts:10
      ~classify:(fun _ -> 0) ()
  in
  let ps = List.init 4 (fun i -> mk ~rank:(100 - i) ()) in
  List.iter (fun p -> ignore (q.Sched.Qdisc.enqueue p)) ps;
  Alcotest.(check (list int)) "FIFO within a queue" (uids_of ps)
    (uids_of (Sched.Qdisc.drain q))

let test_sp_bank_per_queue_drop () =
  let q =
    Sched.Sp_bank.create ~num_queues:2 ~queue_capacity_pkts:1
      ~classify:(fun p -> p.Sched.Packet.rank) ()
  in
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:0 ()));
  let d1 = q.Sched.Qdisc.enqueue (mk ~rank:0 ()) in
  Alcotest.(check int) "queue 0 full" 1 (List.length d1);
  let d2 = q.Sched.Qdisc.enqueue (mk ~rank:1 ()) in
  Alcotest.(check int) "queue 1 has room" 0 (List.length d2)

let test_sp_bank_classifier_clamped () =
  let q =
    Sched.Sp_bank.create ~num_queues:2 ~queue_capacity_pkts:10
      ~classify:(fun p -> p.Sched.Packet.rank) ()
  in
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:(-5) ()));
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:99 ()));
  Alcotest.(check int) "both enqueued" 2 (q.Sched.Qdisc.length ())

let test_queue_of_rank () =
  let bounds = [| 10; 20; 30 |] in
  Alcotest.(check int) "below first bound" 0 (Sched.Sp_bank.queue_of_rank ~bounds 5);
  Alcotest.(check int) "at bound" 0 (Sched.Sp_bank.queue_of_rank ~bounds 10);
  Alcotest.(check int) "middle" 1 (Sched.Sp_bank.queue_of_rank ~bounds 15);
  Alcotest.(check int) "above last bound" 2 (Sched.Sp_bank.queue_of_rank ~bounds 99)

(* ------------------------------------------------------------------ *)
(* SP-PIFO                                                            *)
(* ------------------------------------------------------------------ *)

let inversions out =
  (* Count adjacent-pair rank inversions in the service order. *)
  let rec count acc = function
    | a :: (b :: _ as tl) ->
      count (if a > b then acc + 1 else acc) tl
    | _ -> acc
  in
  count 0 (ranks_of out)

let test_sp_pifo_reduces_inversions () =
  (* With as many queues as distinct ranks, a settled SP-PIFO orders a
     repeating rank pattern with far fewer inversions than FIFO. *)
  let r = Engine.Rng.create ~seed:3 in
  let arrivals = Array.init 400 (fun _ -> Engine.Rng.int_range r ~lo:0 ~hi:7) in
  let run qdisc =
    Array.iter (fun rank -> ignore (qdisc.Sched.Qdisc.enqueue (mk ~rank ()))) arrivals;
    Sched.Qdisc.drain qdisc
  in
  let sp_pifo =
    Sched.Sp_pifo.create ~num_queues:8 ~queue_capacity_pkts:1000 ()
  in
  let fifo = Sched.Fifo_queue.create ~capacity_pkts:1000 () in
  let i_sp = inversions (run sp_pifo) in
  let i_fifo = inversions (run fifo) in
  if i_sp >= i_fifo then
    Alcotest.failf "sp-pifo (%d) not better than fifo (%d)" i_sp i_fifo

let test_sp_pifo_single_queue_is_fifo () =
  Sched.Packet.reset_uid_counter 0;
  let q = Sched.Sp_pifo.create ~num_queues:1 ~queue_capacity_pkts:10 () in
  let ps = List.init 4 (fun i -> mk ~rank:(4 - i) ()) in
  List.iter (fun p -> ignore (q.Sched.Qdisc.enqueue p)) ps;
  Alcotest.(check (list int)) "degenerates to FIFO" (uids_of ps)
    (uids_of (Sched.Qdisc.drain q))

let test_sp_pifo_push_up () =
  let q, bounds =
    Sched.Sp_pifo.create_with_bounds ~num_queues:2 ~queue_capacity_pkts:10 ()
  in
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:5 ()));
  (* Rank 5 lands in the lowest-priority queue (bound 0 <= 5) and raises
     its bound to 5. *)
  Alcotest.(check (array int)) "push-up" [| 0; 5 |] (bounds ())

let test_sp_pifo_push_down () =
  let q, bounds =
    Sched.Sp_pifo.create_with_bounds ~num_queues:2 ~queue_capacity_pkts:10 ()
  in
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:5 ()));
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:10 ()));
  (* bounds now [5(after q0 push-up? no: q0 bound is 0), ...] — rank 5 went
     to q1 (bound 0<=5 → bound 5), rank 10 to q1 again (5<=10 → bound 10).
     Wait: scan is bottom-up so q1 is checked first. bounds = [0; 10]. *)
  Alcotest.(check (array int)) "after two push-ups" [| 0; 10 |] (bounds ());
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:3 ()));
  (* 3 < 10 so q1 rejected; q0 bound 0 <= 3 → q0, bound 3. *)
  Alcotest.(check (array int)) "hi queue used" [| 3; 10 |] (bounds ());
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:1 ()));
  (* 1 < both bounds → inversion, push-down by cost 3-1=2. *)
  Alcotest.(check (array int)) "push-down" [| 1; 8 |] (bounds ())

let test_sp_pifo_never_loses_packets () =
  let q = Sched.Sp_pifo.create ~num_queues:4 ~queue_capacity_pkts:1000 () in
  let r = Engine.Rng.create ~seed:9 in
  for _ = 1 to 500 do
    ignore (q.Sched.Qdisc.enqueue (mk ~rank:(Engine.Rng.int_range r ~lo:0 ~hi:100) ()))
  done;
  Alcotest.(check int) "all queued" 500 (q.Sched.Qdisc.length ());
  Alcotest.(check int) "all drained" 500 (List.length (Sched.Qdisc.drain q))

let test_sp_pifo_bounds_track_distribution () =
  (* Feed a stationary two-modal rank distribution and sample the bounds
     over time: adaptation should keep the low bound at the low mode and
     push the high bound to the high mode most of the time (push-downs
     make any single snapshot noisy — that is the algorithm's documented
     cost mechanism, so we assert on the sampled majority). *)
  let q, bounds =
    Sched.Sp_pifo.create_with_bounds ~num_queues:2 ~queue_capacity_pkts:10_000 ()
  in
  let r = Engine.Rng.create ~seed:77 in
  let separated = ref 0 in
  let samples = ref 0 in
  for i = 1 to 4_000 do
    let rank =
      if Engine.Rng.bool r then Engine.Rng.int_range r ~lo:0 ~hi:10
      else Engine.Rng.int_range r ~lo:1000 ~hi:1010
    in
    ignore (q.Sched.Qdisc.enqueue (mk ~rank ()));
    ignore (q.Sched.Qdisc.dequeue ());
    if i > 500 && i mod 10 = 0 then begin
      incr samples;
      let b = bounds () in
      if b.(1) - b.(0) > 500 then incr separated
    end
  done;
  let fraction = float_of_int !separated /. float_of_int !samples in
  Alcotest.(check bool)
    (Printf.sprintf "modes separated in %.0f%% of samples" (100. *. fraction))
    true
    (fraction > 0.5)

let prop_sp_pifo_conserves =
  QCheck.Test.make ~name:"sp-pifo conserves packets (no capacity pressure)"
    ~count:200
    QCheck.(list_of_size (Gen.int_range 0 200) (int_bound 500))
    (fun ranks ->
      let q = Sched.Sp_pifo.create ~num_queues:8 ~queue_capacity_pkts:10_000 () in
      List.iter (fun rank -> ignore (q.Sched.Qdisc.enqueue (mk ~rank ()))) ranks;
      let out = Sched.Qdisc.drain q in
      List.sort compare (ranks_of out) = List.sort compare ranks)

(* ------------------------------------------------------------------ *)
(* AIFO                                                               *)
(* ------------------------------------------------------------------ *)

let test_aifo_admits_when_empty () =
  let q = Sched.Aifo.create ~capacity_pkts:10 () in
  let d = q.Sched.Qdisc.enqueue (mk ~rank:50 ()) in
  Alcotest.(check int) "first packet admitted" 0 (List.length d)

let test_aifo_serves_fifo () =
  Sched.Packet.reset_uid_counter 0;
  let q = Sched.Aifo.create ~capacity_pkts:100 () in
  let ps = List.init 5 (fun i -> mk ~rank:i ()) in
  List.iter (fun p -> ignore (q.Sched.Qdisc.enqueue p)) ps;
  Alcotest.(check (list int)) "FIFO service" (uids_of ps)
    (uids_of (Sched.Qdisc.drain q))

let test_aifo_rejects_high_rank_under_pressure () =
  let q = Sched.Aifo.create ~window:64 ~k:0.1 ~capacity_pkts:10 () in
  (* Fill most of the queue with low ranks to consume headroom. *)
  for _ = 1 to 9 do
    ignore (q.Sched.Qdisc.enqueue (mk ~rank:1 ()))
  done;
  (* Now a very high-rank packet should be rejected: its quantile is ~1 but
     headroom is ~10%. *)
  let d = q.Sched.Qdisc.enqueue (mk ~rank:1000 ()) in
  Alcotest.(check int) "high rank rejected" 1 (List.length d);
  (* A rank at the bottom of the distribution is still admitted. *)
  let d2 = q.Sched.Qdisc.enqueue (mk ~rank:0 ()) in
  Alcotest.(check int) "low rank admitted" 0 (List.length d2)

let test_aifo_full_drops () =
  let q = Sched.Aifo.create ~capacity_pkts:2 ~k:0.0 () in
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:0 ()));
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:0 ()));
  let d = q.Sched.Qdisc.enqueue (mk ~rank:0 ()) in
  Alcotest.(check int) "full queue drops" 1 (List.length d)

let test_aifo_invalid_params () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "k = 1" true
    (raises (fun () -> ignore (Sched.Aifo.create ~k:1.0 ~capacity_pkts:4 ())));
  Alcotest.(check bool) "negative window" true
    (raises (fun () -> ignore (Sched.Aifo.create ~window:0 ~capacity_pkts:4 ())))

(* ------------------------------------------------------------------ *)
(* DRR bank                                                           *)
(* ------------------------------------------------------------------ *)

let drr ?(weights = None) ?(quantum = 1500) () =
  Sched.Drr_bank.create ?weights:(Option.map Array.of_list weights)
    ~num_queues:2 ~queue_capacity_pkts:64 ~quantum_bytes:quantum
    ~classify:(fun p -> p.Sched.Packet.tenant) ()

let test_drr_equal_interleave () =
  (* Quantum = packet size: each visit's credit covers exactly one packet
     with no leftover deficit, so service alternates strictly. *)
  let q = drr ~quantum:1000 () in
  for _ = 1 to 4 do
    ignore (q.Sched.Qdisc.enqueue (mk ~tenant:0 ~size:1000 ()));
    ignore (q.Sched.Qdisc.enqueue (mk ~tenant:1 ~size:1000 ()))
  done;
  let served =
    List.map (fun (p : Sched.Packet.t) -> p.Sched.Packet.tenant) (Sched.Qdisc.drain q)
  in
  Alcotest.(check (list int)) "alternating service" [ 0; 1; 0; 1; 0; 1; 0; 1 ] served

let test_drr_deficit_carry_over () =
  (* Quantum 1500 with 1000 B packets: the 500 B leftover lets a queue
     serve two packets every other visit — the canonical DRR pattern. *)
  let q = drr ~quantum:1500 () in
  for _ = 1 to 4 do
    ignore (q.Sched.Qdisc.enqueue (mk ~tenant:0 ~size:1000 ()));
    ignore (q.Sched.Qdisc.enqueue (mk ~tenant:1 ~size:1000 ()))
  done;
  let served =
    List.map (fun (p : Sched.Packet.t) -> p.Sched.Packet.tenant) (Sched.Qdisc.drain q)
  in
  Alcotest.(check (list int)) "deficit carry-over pattern"
    [ 0; 1; 0; 0; 1; 1; 0; 1 ] served

let test_drr_weights_bias () =
  let q = drr ~weights:(Some [ 3.0; 1.0 ]) () in
  for _ = 1 to 12 do
    ignore (q.Sched.Qdisc.enqueue (mk ~tenant:0 ~size:1400 ()));
    ignore (q.Sched.Qdisc.enqueue (mk ~tenant:1 ~size:1400 ()))
  done;
  let first8 =
    List.filteri (fun i _ -> i < 8)
      (List.map (fun (p : Sched.Packet.t) -> p.Sched.Packet.tenant) (Sched.Qdisc.drain q))
  in
  let t0 = List.length (List.filter (fun t -> t = 0) first8) in
  Alcotest.(check bool) (Printf.sprintf "weighted queue got %d of 8" t0) true (t0 >= 5)

let test_drr_byte_fairness () =
  (* Tenant 0 sends big packets, tenant 1 small ones: byte shares should
     still be near equal, so tenant 1 serves ~3 packets per tenant-0
     packet. *)
  let q = drr ~quantum:1500 () in
  for _ = 1 to 6 do
    ignore (q.Sched.Qdisc.enqueue (mk ~tenant:0 ~size:1500 ()))
  done;
  for _ = 1 to 18 do
    ignore (q.Sched.Qdisc.enqueue (mk ~tenant:1 ~size:500 ()))
  done;
  let served = Sched.Qdisc.drain q in
  let bytes tenant =
    List.fold_left
      (fun acc (p : Sched.Packet.t) ->
        if p.Sched.Packet.tenant = tenant then acc + p.Sched.Packet.size else acc)
      0
      (List.filteri (fun i _ -> i < 12) served)
  in
  let b0 = bytes 0 and b1 = bytes 1 in
  Alcotest.(check bool)
    (Printf.sprintf "byte shares near equal (%d vs %d)" b0 b1)
    true
    (abs (b0 - b1) <= 1500)

let test_drr_work_conserving () =
  let q = drr () in
  for i = 1 to 5 do
    ignore (q.Sched.Qdisc.enqueue (mk ~tenant:1 ~size:(500 * i) ()))
  done;
  Alcotest.(check int) "all served from one queue" 5
    (List.length (Sched.Qdisc.drain q))

let test_drr_drops_per_queue () =
  let q =
    Sched.Drr_bank.create ~num_queues:2 ~queue_capacity_pkts:1
      ~quantum_bytes:1500 ~classify:(fun p -> p.Sched.Packet.tenant) ()
  in
  ignore (q.Sched.Qdisc.enqueue (mk ~tenant:0 ()));
  let d = q.Sched.Qdisc.enqueue (mk ~tenant:0 ()) in
  Alcotest.(check int) "full queue drops" 1 (List.length d);
  let d2 = q.Sched.Qdisc.enqueue (mk ~tenant:1 ()) in
  Alcotest.(check int) "other queue open" 0 (List.length d2)

let test_drr_invalid () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad quantum" true
    (raises (fun () ->
         ignore
           (Sched.Drr_bank.create ~num_queues:2 ~queue_capacity_pkts:4
              ~quantum_bytes:0 ~classify:(fun _ -> 0) ())));
  Alcotest.(check bool) "weights length" true
    (raises (fun () ->
         ignore
           (Sched.Drr_bank.create ~weights:[| 1.0 |] ~num_queues:2
              ~queue_capacity_pkts:4 ~quantum_bytes:100 ~classify:(fun _ -> 0) ())))

(* ------------------------------------------------------------------ *)
(* Calendar queue                                                     *)
(* ------------------------------------------------------------------ *)

let test_calendar_orders_by_bucket () =
  let q =
    Sched.Calendar_queue.create ~num_buckets:8 ~bucket_width:10
      ~capacity_pkts:64 ()
  in
  List.iter
    (fun rank -> ignore (q.Sched.Qdisc.enqueue (mk ~rank ())))
    [ 35; 5; 25; 15 ];
  Alcotest.(check (list int)) "bucket order" [ 5; 15; 25; 35 ]
    (ranks_of (Sched.Qdisc.drain q))

let test_calendar_fifo_within_bucket () =
  Sched.Packet.reset_uid_counter 0;
  let q =
    Sched.Calendar_queue.create ~num_buckets:4 ~bucket_width:100
      ~capacity_pkts:64 ()
  in
  (* Ranks 90 and 10 share bucket 0: FIFO between them despite ranks. *)
  let a = mk ~rank:90 () in
  let b = mk ~rank:10 () in
  ignore (q.Sched.Qdisc.enqueue a);
  ignore (q.Sched.Qdisc.enqueue b);
  Alcotest.(check (list int)) "FIFO within bucket"
    [ a.Sched.Packet.uid; b.Sched.Packet.uid ]
    (uids_of (Sched.Qdisc.drain q))

let test_calendar_horizon_aliases () =
  let q =
    Sched.Calendar_queue.create ~num_buckets:2 ~bucket_width:10
      ~capacity_pkts:64 ()
  in
  (* Rank 1000 is far beyond the 2-bucket horizon: it aliases into the
     last bucket and is served right after the current day. *)
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:1000 ()));
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:5 ()));
  Alcotest.(check (list int)) "alias into horizon" [ 5; 1000 ]
    (ranks_of (Sched.Qdisc.drain q))

let test_calendar_day_advances () =
  let q, day =
    Sched.Calendar_queue.create_with_day ~num_buckets:4 ~bucket_width:10
      ~capacity_pkts:64 ()
  in
  Alcotest.(check int) "day starts at 0" 0 (day ());
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:25 ()));
  ignore (q.Sched.Qdisc.dequeue ());
  Alcotest.(check int) "rotated to the packet's bucket" 20 (day ())

let test_calendar_late_packet_served_now () =
  let q, day =
    Sched.Calendar_queue.create_with_day ~num_buckets:4 ~bucket_width:10
      ~capacity_pkts:64 ()
  in
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:35 ()));
  ignore (q.Sched.Qdisc.dequeue ());
  Alcotest.(check bool) "day moved on" true (day () > 0);
  (* A rank below the current day lands in today's bucket. *)
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:0 ()));
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:(day () + 35) ()));
  Alcotest.(check int) "late packet first" 0
    (match q.Sched.Qdisc.dequeue () with
    | Some p -> p.Sched.Packet.rank
    | None -> -1)

let test_calendar_capacity () =
  let q =
    Sched.Calendar_queue.create ~num_buckets:2 ~bucket_width:10
      ~capacity_pkts:1 ()
  in
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:1 ()));
  Alcotest.(check int) "overflow dropped" 1
    (List.length (q.Sched.Qdisc.enqueue (mk ~rank:2 ())));
  Alcotest.(check int) "drop counted" 1 (q.Sched.Qdisc.drops ())

(* ------------------------------------------------------------------ *)
(* Rankers                                                            *)
(* ------------------------------------------------------------------ *)

let test_pfabric_rank_is_remaining () =
  let rk = Sched.Ranker.pfabric ~unit_bytes:1000 () in
  let p = mk ~remaining:250_000 () in
  Alcotest.(check int) "250 KB -> rank 250" 250 (Sched.Ranker.tag rk ~now:0. p);
  Alcotest.(check int) "rank stored on packet" 250 p.Sched.Packet.rank

let test_pfabric_monotone_in_remaining () =
  let rk = Sched.Ranker.pfabric () in
  let small = mk ~remaining:10_000 () in
  let big = mk ~remaining:1_000_000 () in
  Alcotest.(check bool) "short flows first" true
    (Sched.Ranker.tag rk ~now:0. small < Sched.Ranker.tag rk ~now:0. big)

let test_edf_earlier_deadline_first () =
  let rk = Sched.Ranker.edf () in
  let soon = mk ~deadline:0.001 () in
  let late = mk ~deadline:0.5 () in
  Alcotest.(check bool) "earlier deadline ranks lower" true
    (Sched.Ranker.tag rk ~now:0. soon < Sched.Ranker.tag rk ~now:0. late)

let test_edf_expired_deadline_clamps () =
  let rk = Sched.Ranker.edf () in
  let overdue = mk ~deadline:1.0 () in
  Alcotest.(check int) "expired clamps to 0" 0 (Sched.Ranker.tag rk ~now:2.0 overdue)

let test_edf_no_deadline_is_horizon () =
  let rk = Sched.Ranker.edf ~unit_seconds:1e-3 ~horizon:1.0 () in
  let p = mk () in
  Alcotest.(check int) "no deadline -> horizon" 1000 (Sched.Ranker.tag rk ~now:0. p)

let test_edf_rank_decreases_with_time () =
  let rk = Sched.Ranker.edf () in
  let p1 = mk ~deadline:1.0 () in
  let p2 = mk ~deadline:1.0 () in
  let early = Sched.Ranker.tag rk ~now:0.0 p1 in
  let later = Sched.Ranker.tag rk ~now:0.5 p2 in
  Alcotest.(check bool) "urgency grows as deadline nears" true (later < early)

let test_stfq_backlogged_flow_accumulates () =
  let rk = Sched.Ranker.stfq ~unit_bytes:100 () in
  let tag () = Sched.Ranker.tag rk ~now:0. (mk ~flow:1 ~size:1000 ()) in
  let r1 = tag () in
  let r2 = tag () in
  let r3 = tag () in
  Alcotest.(check (list int)) "start times advance by len/weight"
    [ 0; 10; 20 ] [ r1; r2; r3 ]

let test_stfq_new_flow_not_starved () =
  let rk = Sched.Ranker.stfq ~unit_bytes:100 () in
  (* Flow 1 backlogs 50 packets. *)
  for _ = 1 to 50 do
    ignore (Sched.Ranker.tag rk ~now:0. (mk ~flow:1 ~size:1000 ()))
  done;
  let f1_next = Sched.Ranker.tag rk ~now:0. (mk ~flow:1 ~size:1000 ()) in
  let f2_first = Sched.Ranker.tag rk ~now:0. (mk ~flow:2 ~size:1000 ()) in
  Alcotest.(check bool) "newcomer joins near the virtual clock, not at 0" true
    (f2_first <= f1_next && f2_first > 0)

let test_stfq_weights () =
  let weight ~flow = if flow = 1 then 2.0 else 1.0 in
  let rk = Sched.Ranker.stfq ~unit_bytes:100 ~weight () in
  (* Two flows, same arrivals: the weight-2 flow's start times advance at
     half the pace, so it is served twice as often. *)
  let r1a = Sched.Ranker.tag rk ~now:0. (mk ~flow:1 ~size:1000 ()) in
  let r2a = Sched.Ranker.tag rk ~now:0. (mk ~flow:2 ~size:1000 ()) in
  let r1b = Sched.Ranker.tag rk ~now:0. (mk ~flow:1 ~size:1000 ()) in
  let r2b = Sched.Ranker.tag rk ~now:0. (mk ~flow:2 ~size:1000 ()) in
  Alcotest.(check int) "both start at 0 (a)" 0 r1a;
  Alcotest.(check int) "both start at 0 (b)" 0 r2a;
  Alcotest.(check bool) "weighted flow advances slower" true (r1b < r2b)

let test_fifo_ranker_orders_by_creation () =
  let rk = Sched.Ranker.fifo () in
  let a = mk ~created_at:0.001 () in
  let b = mk ~created_at:0.002 () in
  Alcotest.(check bool) "earlier creation ranks lower" true
    (Sched.Ranker.tag rk ~now:1. a < Sched.Ranker.tag rk ~now:1. b)

let test_lstf_slack () =
  let rk = Sched.Ranker.lstf ~line_rate:1e9 () in
  let tight = mk ~deadline:0.01 ~remaining:1_000_000 () in
  let loose = mk ~deadline:0.01 ~remaining:1_000 () in
  Alcotest.(check bool) "less slack ranks lower" true
    (Sched.Ranker.tag rk ~now:0. tight < Sched.Ranker.tag rk ~now:0. loose)

let test_constant_ranker () =
  let rk = Sched.Ranker.constant 7 in
  Alcotest.(check int) "constant" 7 (Sched.Ranker.tag rk ~now:0. (mk ()))

let test_ranker_names () =
  Alcotest.(check string) "pfabric" "pfabric" (Sched.Ranker.name (Sched.Ranker.pfabric ()));
  Alcotest.(check string) "srpt" "srpt" (Sched.Ranker.name (Sched.Ranker.srpt ()));
  Alcotest.(check string) "edf" "edf" (Sched.Ranker.name (Sched.Ranker.edf ()));
  Alcotest.(check string) "stfq" "stfq" (Sched.Ranker.name (Sched.Ranker.stfq ()))

let test_pfabric_plus_pifo_is_srpt () =
  (* End-to-end sanity: pFabric ranks + a PIFO queue serve the shortest
     remaining flow first. *)
  let rk = Sched.Ranker.pfabric () in
  let q = Sched.Pifo_queue.create ~capacity_pkts:10 () in
  let flows = [ (1, 900_000); (2, 5_000); (3, 90_000) ] in
  List.iter
    (fun (flow, remaining) ->
      let p = mk ~flow ~remaining () in
      ignore (Sched.Ranker.tag rk ~now:0. p);
      ignore (q.Sched.Qdisc.enqueue p))
    flows;
  let served = List.map (fun p -> p.Sched.Packet.flow) (Sched.Qdisc.drain q) in
  Alcotest.(check (list int)) "shortest flow first" [ 2; 3; 1 ] served

let prop_edf_order_matches_deadline_order =
  QCheck.Test.make ~name:"edf rank order matches deadline order" ~count:200
    QCheck.(pair (float_bound_exclusive 1.) (float_bound_exclusive 1.))
    (fun (d1, d2) ->
      let rk = Sched.Ranker.edf ~unit_seconds:1e-9 () in
      let p1 = mk ~deadline:(1. +. d1) () in
      let p2 = mk ~deadline:(1. +. d2) () in
      let r1 = Sched.Ranker.tag rk ~now:0. p1 in
      let r2 = Sched.Ranker.tag rk ~now:0. p2 in
      (compare d1 d2 = 0) || (d1 < d2) = (r1 < r2))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "sched"
    [
      ( "packet",
        [
          Alcotest.test_case "defaults" `Quick test_packet_defaults;
          Alcotest.test_case "uids unique" `Quick test_packet_uids_unique;
          Alcotest.test_case "compare_rank" `Quick test_packet_compare_rank;
        ] );
      ( "fifo",
        [
          Alcotest.test_case "service order" `Quick test_fifo_fifo_order;
          Alcotest.test_case "tail drop" `Quick test_fifo_tail_drop;
          Alcotest.test_case "bytes accounting" `Quick test_fifo_bytes_accounting;
          Alcotest.test_case "invalid capacity" `Quick test_fifo_invalid_capacity;
        ] );
      ( "pifo",
        [
          Alcotest.test_case "rank order" `Quick test_pifo_rank_order;
          Alcotest.test_case "stable ties" `Quick test_pifo_stable_ties;
          Alcotest.test_case "paper example" `Quick test_pifo_paper_example;
          Alcotest.test_case "worst eviction" `Quick test_pifo_worst_eviction;
          Alcotest.test_case "worse arrival dropped" `Quick test_pifo_worse_arrival_dropped;
          Alcotest.test_case "equal rank keeps incumbent" `Quick
            test_pifo_equal_rank_full_drops_arrival;
          qc prop_pifo_sorted;
          qc prop_pifo_bounded_keeps_best;
        ] );
      ( "bucket",
        [
          Alcotest.test_case "rank order" `Quick test_bucket_rank_order;
          Alcotest.test_case "stable ties" `Quick test_bucket_stable_ties;
          Alcotest.test_case "worst eviction" `Quick test_bucket_worst_eviction;
          Alcotest.test_case "equal-rank full drops arrival" `Quick
            test_bucket_equal_rank_full_drops_arrival;
          Alcotest.test_case "rank clamping" `Quick test_bucket_rank_clamping;
          Alcotest.test_case "accounting" `Quick test_bucket_accounting;
          Alcotest.test_case "arrival ties" `Quick test_bucket_arrival_ties;
          Alcotest.test_case "drained footprint" `Quick
            test_bucket_drained_footprint;
          qc prop_bucket_matches_pifo_map;
        ] );
      ( "sp_bank",
        [
          Alcotest.test_case "strict priority" `Quick test_sp_bank_strict_priority;
          Alcotest.test_case "FIFO within queue" `Quick test_sp_bank_fifo_within_queue;
          Alcotest.test_case "per-queue drop" `Quick test_sp_bank_per_queue_drop;
          Alcotest.test_case "classifier clamped" `Quick test_sp_bank_classifier_clamped;
          Alcotest.test_case "queue_of_rank" `Quick test_queue_of_rank;
        ] );
      ( "sp_pifo",
        [
          Alcotest.test_case "reduces inversions vs FIFO" `Quick
            test_sp_pifo_reduces_inversions;
          Alcotest.test_case "single queue = FIFO" `Quick test_sp_pifo_single_queue_is_fifo;
          Alcotest.test_case "push-up" `Quick test_sp_pifo_push_up;
          Alcotest.test_case "push-down" `Quick test_sp_pifo_push_down;
          Alcotest.test_case "conserves packets" `Quick test_sp_pifo_never_loses_packets;
          Alcotest.test_case "bounds track distribution" `Quick test_sp_pifo_bounds_track_distribution;
          qc prop_sp_pifo_conserves;
        ] );
      ( "aifo",
        [
          Alcotest.test_case "admits when empty" `Quick test_aifo_admits_when_empty;
          Alcotest.test_case "serves FIFO" `Quick test_aifo_serves_fifo;
          Alcotest.test_case "rejects high rank under pressure" `Quick
            test_aifo_rejects_high_rank_under_pressure;
          Alcotest.test_case "full drops" `Quick test_aifo_full_drops;
          Alcotest.test_case "invalid params" `Quick test_aifo_invalid_params;
        ] );
      ( "drr_bank",
        [
          Alcotest.test_case "equal interleave" `Quick test_drr_equal_interleave;
          Alcotest.test_case "deficit carry-over" `Quick test_drr_deficit_carry_over;
          Alcotest.test_case "weights bias" `Quick test_drr_weights_bias;
          Alcotest.test_case "byte fairness" `Quick test_drr_byte_fairness;
          Alcotest.test_case "work conserving" `Quick test_drr_work_conserving;
          Alcotest.test_case "drops per queue" `Quick test_drr_drops_per_queue;
          Alcotest.test_case "invalid" `Quick test_drr_invalid;
        ] );
      ( "calendar_queue",
        [
          Alcotest.test_case "bucket order" `Quick test_calendar_orders_by_bucket;
          Alcotest.test_case "FIFO within bucket" `Quick test_calendar_fifo_within_bucket;
          Alcotest.test_case "horizon aliases" `Quick test_calendar_horizon_aliases;
          Alcotest.test_case "day advances" `Quick test_calendar_day_advances;
          Alcotest.test_case "late packet" `Quick test_calendar_late_packet_served_now;
          Alcotest.test_case "capacity" `Quick test_calendar_capacity;
        ] );
      ( "ranker",
        [
          Alcotest.test_case "pfabric remaining" `Quick test_pfabric_rank_is_remaining;
          Alcotest.test_case "pfabric monotone" `Quick test_pfabric_monotone_in_remaining;
          Alcotest.test_case "edf order" `Quick test_edf_earlier_deadline_first;
          Alcotest.test_case "edf clamp" `Quick test_edf_expired_deadline_clamps;
          Alcotest.test_case "edf horizon" `Quick test_edf_no_deadline_is_horizon;
          Alcotest.test_case "edf urgency" `Quick test_edf_rank_decreases_with_time;
          Alcotest.test_case "stfq accumulation" `Quick test_stfq_backlogged_flow_accumulates;
          Alcotest.test_case "stfq newcomer" `Quick test_stfq_new_flow_not_starved;
          Alcotest.test_case "stfq weights" `Quick test_stfq_weights;
          Alcotest.test_case "fifo ranker" `Quick test_fifo_ranker_orders_by_creation;
          Alcotest.test_case "lstf slack" `Quick test_lstf_slack;
          Alcotest.test_case "constant" `Quick test_constant_ranker;
          Alcotest.test_case "names" `Quick test_ranker_names;
          Alcotest.test_case "pfabric+pifo = srpt" `Quick test_pfabric_plus_pifo_is_srpt;
          qc prop_edf_order_matches_deadline_order;
        ] );
    ]
