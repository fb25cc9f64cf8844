(* Tests for the PIFO-tree hierarchical scheduler and its use as a direct
   policy-to-tree QVISOR backend (the §5 expressivity extension). *)

let mk ?(tenant = 0) ?(rank = 0) ?(size = 1000) () =
  Sched.Packet.make ~tenant ~rank ~flow:tenant ~size ()

let drain_tenants q =
  List.map (fun (p : Sched.Packet.t) -> p.Sched.Packet.tenant) (Sched.Qdisc.drain q)

let drain_ranks q =
  List.map (fun (p : Sched.Packet.t) -> p.Sched.Packet.rank) (Sched.Qdisc.drain q)

(* ------------------------------------------------------------------ *)
(* Single leaf: behaves like a plain PIFO                             *)
(* ------------------------------------------------------------------ *)

let test_single_leaf_is_pifo () =
  let q =
    Sched.Pifo_tree.to_qdisc ~classify:(fun _ -> 0) ~capacity_pkts:16
      (Sched.Pifo_tree.leaf ())
  in
  List.iter (fun rank -> ignore (q.Sched.Qdisc.enqueue (mk ~rank ()))) [ 5; 1; 3 ];
  Alcotest.(check (list int)) "rank order" [ 1; 3; 5 ] (drain_ranks q)

let test_leaf_custom_rank () =
  (* Rank leaves by packet size instead of the rank field. *)
  let q =
    Sched.Pifo_tree.to_qdisc ~classify:(fun _ -> 0) ~capacity_pkts:16
      (Sched.Pifo_tree.leaf ~rank_of:(fun p -> p.Sched.Packet.size) ())
  in
  List.iter (fun size -> ignore (q.Sched.Qdisc.enqueue (mk ~size ()))) [ 900; 100; 500 ];
  let sizes =
    List.map (fun (p : Sched.Packet.t) -> p.Sched.Packet.size) (Sched.Qdisc.drain q)
  in
  Alcotest.(check (list int)) "smallest first" [ 100; 500; 900 ] sizes

(* ------------------------------------------------------------------ *)
(* Strict nodes                                                       *)
(* ------------------------------------------------------------------ *)

let two_leaf_strict () =
  Sched.Pifo_tree.to_qdisc
    ~classify:(fun p -> p.Sched.Packet.tenant)
    ~capacity_pkts:64
    (Sched.Pifo_tree.strict [ Sched.Pifo_tree.leaf (); Sched.Pifo_tree.leaf () ])

let test_strict_priority () =
  let q = two_leaf_strict () in
  (* Low-priority tenant 1 queues first; tenant 0 still drains first. *)
  ignore (q.Sched.Qdisc.enqueue (mk ~tenant:1 ~rank:0 ()));
  ignore (q.Sched.Qdisc.enqueue (mk ~tenant:1 ~rank:1 ()));
  ignore (q.Sched.Qdisc.enqueue (mk ~tenant:0 ~rank:9 ()));
  Alcotest.(check (list int)) "tenant 0 first" [ 0; 1; 1 ] (drain_tenants q)

let test_strict_intra_leaf_order () =
  let q = two_leaf_strict () in
  List.iter
    (fun rank -> ignore (q.Sched.Qdisc.enqueue (mk ~tenant:0 ~rank ())))
    [ 7; 2; 5 ];
  Alcotest.(check (list int)) "leaf still sorts" [ 2; 5; 7 ] (drain_ranks q)

let test_strict_interleaved_arrivals () =
  let q = two_leaf_strict () in
  ignore (q.Sched.Qdisc.enqueue (mk ~tenant:1 ~rank:0 ()));
  ignore (q.Sched.Qdisc.enqueue (mk ~tenant:0 ~rank:5 ()));
  ignore (q.Sched.Qdisc.enqueue (mk ~tenant:1 ~rank:1 ()));
  ignore (q.Sched.Qdisc.enqueue (mk ~tenant:0 ~rank:3 ()));
  Alcotest.(check (list int)) "all of tenant 0, then tenant 1" [ 0; 0; 1; 1 ]
    (drain_tenants q)

(* ------------------------------------------------------------------ *)
(* WFQ nodes                                                          *)
(* ------------------------------------------------------------------ *)

let test_wfq_equal_weights_interleave () =
  let q =
    Sched.Pifo_tree.to_qdisc
      ~classify:(fun p -> p.Sched.Packet.tenant)
      ~capacity_pkts:64
      (Sched.Pifo_tree.wfq
         [ (Sched.Pifo_tree.leaf (), 1.0); (Sched.Pifo_tree.leaf (), 1.0) ])
  in
  for i = 0 to 3 do
    ignore (q.Sched.Qdisc.enqueue (mk ~tenant:0 ~rank:i ()));
    ignore (q.Sched.Qdisc.enqueue (mk ~tenant:1 ~rank:i ()))
  done;
  let served = drain_tenants q in
  (* Fair share: in any prefix of length 2k the split is k/k (within 1). *)
  let rec check_prefix acc0 acc1 = function
    | [] -> ()
    | t :: rest ->
      let acc0 = if t = 0 then acc0 + 1 else acc0 in
      let acc1 = if t = 1 then acc1 + 1 else acc1 in
      if abs (acc0 - acc1) > 1 then
        Alcotest.failf "unfair prefix: %d vs %d" acc0 acc1;
      check_prefix acc0 acc1 rest
  in
  check_prefix 0 0 served

let test_wfq_weights_bias_share () =
  let q =
    Sched.Pifo_tree.to_qdisc
      ~classify:(fun p -> p.Sched.Packet.tenant)
      ~capacity_pkts:256
      (Sched.Pifo_tree.wfq
         [ (Sched.Pifo_tree.leaf (), 3.0); (Sched.Pifo_tree.leaf (), 1.0) ])
  in
  for i = 0 to 19 do
    ignore (q.Sched.Qdisc.enqueue (mk ~tenant:0 ~rank:i ()));
    ignore (q.Sched.Qdisc.enqueue (mk ~tenant:1 ~rank:i ()))
  done;
  (* In the first 12 services, the weight-3 tenant gets about 3/4. *)
  let first12 =
    List.filteri (fun i _ -> i < 12) (drain_tenants q)
  in
  let t0 = List.length (List.filter (fun t -> t = 0) first12) in
  Alcotest.(check bool)
    (Printf.sprintf "weight-3 tenant got %d of 12" t0)
    true
    (t0 >= 8)

let test_wfq_work_conserving () =
  let q =
    Sched.Pifo_tree.to_qdisc
      ~classify:(fun p -> p.Sched.Packet.tenant)
      ~capacity_pkts:64
      (Sched.Pifo_tree.wfq
         [ (Sched.Pifo_tree.leaf (), 1.0); (Sched.Pifo_tree.leaf (), 1.0) ])
  in
  (* Only tenant 1 is active: it gets everything. *)
  for i = 0 to 4 do
    ignore (q.Sched.Qdisc.enqueue (mk ~tenant:1 ~rank:i ()))
  done;
  Alcotest.(check (list int)) "no idle share" [ 1; 1; 1; 1; 1 ] (drain_tenants q)

(* ------------------------------------------------------------------ *)
(* Nested trees                                                       *)
(* ------------------------------------------------------------------ *)

let test_nested_strict_over_wfq () =
  (* tenant 0 strictly above a fair pair (tenants 1 and 2). *)
  let q =
    Sched.Pifo_tree.to_qdisc
      ~classify:(fun p -> p.Sched.Packet.tenant)
      ~capacity_pkts:64
      (Sched.Pifo_tree.strict
         [
           Sched.Pifo_tree.leaf ();
           Sched.Pifo_tree.wfq
             [ (Sched.Pifo_tree.leaf (), 1.0); (Sched.Pifo_tree.leaf (), 1.0) ];
         ])
  in
  ignore (q.Sched.Qdisc.enqueue (mk ~tenant:1 ~rank:0 ()));
  ignore (q.Sched.Qdisc.enqueue (mk ~tenant:2 ~rank:0 ()));
  ignore (q.Sched.Qdisc.enqueue (mk ~tenant:1 ~rank:1 ()));
  ignore (q.Sched.Qdisc.enqueue (mk ~tenant:2 ~rank:1 ()));
  ignore (q.Sched.Qdisc.enqueue (mk ~tenant:0 ~rank:99 ()));
  let served = drain_tenants q in
  Alcotest.(check int) "tenant 0 first" 0 (List.hd served);
  (* The wfq pair interleaves behind it. *)
  Alcotest.(check (list int)) "fair pair interleaves" [ 1; 2; 1; 2 ]
    (List.tl served)

let test_num_leaves () =
  let tree =
    Sched.Pifo_tree.strict
      [
        Sched.Pifo_tree.leaf ();
        Sched.Pifo_tree.wfq
          [ (Sched.Pifo_tree.leaf (), 1.0); (Sched.Pifo_tree.leaf (), 2.0) ];
      ]
  in
  Alcotest.(check int) "three leaves" 3 (Sched.Pifo_tree.num_leaves tree)

let test_capacity_and_drops () =
  let q =
    Sched.Pifo_tree.to_qdisc ~classify:(fun _ -> 0) ~capacity_pkts:2
      (Sched.Pifo_tree.leaf ())
  in
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:1 ()));
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:2 ()));
  let third = mk ~rank:0 () in
  let dropped = q.Sched.Qdisc.enqueue third in
  Alcotest.(check int) "tail dropped" 1 (List.length dropped);
  Alcotest.(check int) "drop counted" 1 (q.Sched.Qdisc.drops ());
  Alcotest.(check int) "length stable" 2 (q.Sched.Qdisc.length ())

let test_bytes_accounting () =
  let q =
    Sched.Pifo_tree.to_qdisc ~classify:(fun _ -> 0) ~capacity_pkts:8
      (Sched.Pifo_tree.leaf ())
  in
  ignore (q.Sched.Qdisc.enqueue (mk ~size:100 ()));
  ignore (q.Sched.Qdisc.enqueue (mk ~size:250 ()));
  Alcotest.(check int) "bytes" 350 (q.Sched.Qdisc.bytes ());
  ignore (q.Sched.Qdisc.dequeue ());
  Alcotest.(check int) "bytes after" 250 (q.Sched.Qdisc.bytes ())

let test_peek_nondestructive () =
  let q =
    Sched.Pifo_tree.to_qdisc ~classify:(fun _ -> 0) ~capacity_pkts:8
      (Sched.Pifo_tree.leaf ())
  in
  ignore (q.Sched.Qdisc.enqueue (mk ~rank:4 ()));
  (match q.Sched.Qdisc.peek () with
  | Some p -> Alcotest.(check int) "peek head" 4 p.Sched.Packet.rank
  | None -> Alcotest.fail "peek empty");
  Alcotest.(check int) "still queued" 1 (q.Sched.Qdisc.length ())

let test_classify_clamped () =
  let q = two_leaf_strict () in
  ignore (q.Sched.Qdisc.enqueue (mk ~tenant:99 ()));
  Alcotest.(check int) "out-of-range leaf clamped" 1 (q.Sched.Qdisc.length ())

let prop_tree_conserves_packets =
  QCheck.Test.make ~name:"tree conserves packets under random traffic" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 100) (pair (int_bound 2) (int_bound 500)))
    (fun arrivals ->
      let q =
        Sched.Pifo_tree.to_qdisc
          ~classify:(fun p -> p.Sched.Packet.tenant)
          ~capacity_pkts:1000
          (Sched.Pifo_tree.strict
             [
               Sched.Pifo_tree.leaf ();
               Sched.Pifo_tree.wfq
                 [ (Sched.Pifo_tree.leaf (), 1.0); (Sched.Pifo_tree.leaf (), 2.0) ];
             ])
      in
      List.iter
        (fun (tenant, rank) -> ignore (q.Sched.Qdisc.enqueue (mk ~tenant ~rank ())))
        arrivals;
      List.length (Sched.Qdisc.drain q) = List.length arrivals)

(* ------------------------------------------------------------------ *)
(* Policy-to-tree deployment                                          *)
(* ------------------------------------------------------------------ *)

let tree_tenants () =
  [
    Qvisor.Tenant.make ~rank_lo:0 ~rank_hi:100 ~id:1 ~name:"T1" ();
    Qvisor.Tenant.make ~rank_lo:0 ~rank_hi:100 ~id:2 ~name:"T2" ();
    Qvisor.Tenant.make ~rank_lo:0 ~rank_hi:100 ~id:3 ~name:"T3" ();
  ]

let deploy_tree policy_str =
  match
    Qvisor.Deploy.pifo_tree_of_policy ~tenants:(tree_tenants ())
      ~policy:(Qvisor.Policy.parse_exn policy_str) ~capacity_pkts:64 ()
  with
  | Ok q -> q
  | Error e -> Alcotest.failf "tree deployment failed: %s" (Qvisor.Error.to_string e)

let test_tree_backend_fig3 () =
  (* The Fig. 3 scenario through the tree backend: no pre-processor, raw
     ranks, yet T1 isolated and T2/T3 sharing. *)
  let q = deploy_tree "T1 >> T2 + T3" in
  let offer tenant rank = ignore (q.Sched.Qdisc.enqueue (mk ~tenant ~rank ())) in
  offer 2 1;
  offer 3 3;
  offer 2 3;
  offer 3 5;
  offer 1 9;
  offer 1 7;
  offer 1 8;
  let served = drain_tenants q in
  Alcotest.(check (list int)) "T1 drains first" [ 1; 1; 1 ]
    (List.filteri (fun i _ -> i < 3) served);
  Alcotest.(check (list int)) "T2/T3 interleave" [ 2; 3; 2; 3 ]
    (List.filteri (fun i _ -> i >= 3) served)

let test_tree_backend_prefer_biases () =
  let q = deploy_tree "T1 > T2 >> T3" in
  (* Equal backlogs for T1 and T2: the decayed weights serve T1 about 4x
     as often early on. *)
  for i = 0 to 15 do
    ignore (q.Sched.Qdisc.enqueue (mk ~tenant:1 ~rank:i ()));
    ignore (q.Sched.Qdisc.enqueue (mk ~tenant:2 ~rank:i ()))
  done;
  let first10 = List.filteri (fun i _ -> i < 10) (drain_tenants q) in
  let t1 = List.length (List.filter (fun t -> t = 1) first10) in
  Alcotest.(check bool) (Printf.sprintf "T1 got %d of 10" t1) true (t1 >= 7)

let test_tree_backend_unknown_tenant_last_leaf () =
  let q = deploy_tree "T1 >> T2 >> T3" in
  ignore (q.Sched.Qdisc.enqueue (mk ~tenant:77 ~rank:0 ()));
  ignore (q.Sched.Qdisc.enqueue (mk ~tenant:1 ~rank:50 ()));
  Alcotest.(check (list int)) "stranger served last" [ 1; 77 ] (drain_tenants q)

let test_tree_backend_validation () =
  Alcotest.(check bool) "unknown tenant in policy" true
    (Result.is_error
       (Qvisor.Deploy.pifo_tree_of_policy ~tenants:(tree_tenants ())
          ~policy:(Qvisor.Policy.parse_exn "T1 >> TX >> T2 >> T3")
          ~capacity_pkts:64 ()))

let test_tree_backend_nested_policy () =
  (* T1 + (T2 >> T3): sharing between T1 and the strict pair. *)
  let q = deploy_tree "T1 + (T2 >> T3)" in
  for i = 0 to 3 do
    ignore (q.Sched.Qdisc.enqueue (mk ~tenant:1 ~rank:i ()));
    ignore (q.Sched.Qdisc.enqueue (mk ~tenant:3 ~rank:i ()));
    ignore (q.Sched.Qdisc.enqueue (mk ~tenant:2 ~rank:i ()))
  done;
  let served = drain_tenants q in
  (* T1 gets every other slot; inside the subtree T2 fully precedes T3. *)
  let subtree = List.filter (fun t -> t <> 1) served in
  Alcotest.(check (list int)) "T2 strictly before T3 in the subtree"
    [ 2; 2; 2; 2; 3; 3; 3; 3 ] subtree;
  let t1_count_first_half =
    List.length
      (List.filter (fun t -> t = 1) (List.filteri (fun i _ -> i < 6) served))
  in
  Alcotest.(check bool) "T1 present in the head of service" true
    (t1_count_first_half >= 2)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "pifo_tree"
    [
      ( "leaf",
        [
          Alcotest.test_case "single leaf = pifo" `Quick test_single_leaf_is_pifo;
          Alcotest.test_case "custom rank" `Quick test_leaf_custom_rank;
        ] );
      ( "strict",
        [
          Alcotest.test_case "priority" `Quick test_strict_priority;
          Alcotest.test_case "intra-leaf order" `Quick test_strict_intra_leaf_order;
          Alcotest.test_case "interleaved arrivals" `Quick test_strict_interleaved_arrivals;
        ] );
      ( "wfq",
        [
          Alcotest.test_case "equal weights" `Quick test_wfq_equal_weights_interleave;
          Alcotest.test_case "weights bias" `Quick test_wfq_weights_bias_share;
          Alcotest.test_case "work conserving" `Quick test_wfq_work_conserving;
        ] );
      ( "nested",
        [
          Alcotest.test_case "strict over wfq" `Quick test_nested_strict_over_wfq;
          Alcotest.test_case "num leaves" `Quick test_num_leaves;
          Alcotest.test_case "capacity/drops" `Quick test_capacity_and_drops;
          Alcotest.test_case "bytes" `Quick test_bytes_accounting;
          Alcotest.test_case "peek" `Quick test_peek_nondestructive;
          Alcotest.test_case "classify clamped" `Quick test_classify_clamped;
          qc prop_tree_conserves_packets;
        ] );
      ( "policy_backend",
        [
          Alcotest.test_case "fig3 via tree" `Quick test_tree_backend_fig3;
          Alcotest.test_case "prefer biases" `Quick test_tree_backend_prefer_biases;
          Alcotest.test_case "unknown tenant" `Quick test_tree_backend_unknown_tenant_last_leaf;
          Alcotest.test_case "validation" `Quick test_tree_backend_validation;
          Alcotest.test_case "nested policy" `Quick test_tree_backend_nested_policy;
        ] );
    ]
