(* Quickstart: the paper's Fig. 3, step by step.

   Three tenants rank their own packets with their own algorithms
   (pFabric, EDF, fair queuing); the operator wants T1 strictly above T2
   and T3, which share.  QVISOR synthesizes per-tenant rank
   transformations and rewrites ranks at line rate so that a single PIFO
   realizes the multi-tenant policy.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* 1. Tenants declare their scheduling specs: algorithm + rank range. *)
  let tenants =
    [
      Qvisor.Tenant.make ~algorithm:"pfabric" ~rank_lo:7 ~rank_hi:9 ~id:1
        ~name:"T1" ();
      Qvisor.Tenant.make ~algorithm:"edf" ~rank_lo:1 ~rank_hi:3 ~id:2
        ~name:"T2" ();
      Qvisor.Tenant.make ~algorithm:"fq" ~rank_lo:3 ~rank_hi:5 ~id:3
        ~name:"T3" ();
    ]
  in

  (* 2. The operator writes the inter-tenant policy. *)
  let policy = Qvisor.Policy.parse_exn "T1 >> T2 + T3" in
  Format.printf "operator policy: %a@.@." Qvisor.Policy.pp policy;

  (* 3. QVISOR's synthesizer produces the joint scheduling function.  A
     9-rank space keeps the numbers readable, like the figure. *)
  let config =
    { Qvisor.Synthesizer.default_config with rank_lo = 1; rank_hi = 9 }
  in
  let plan = Qvisor.Synthesizer.synthesize_exn ~config ~tenants ~policy () in
  Format.printf "%a@.@." Qvisor.Synthesizer.pp_plan plan;

  (* 4. Static analysis: does the plan satisfy the policy in the worst
     case? *)
  let report = Qvisor.Analysis.check plan in
  Format.printf "%a@.@." Qvisor.Analysis.pp_report report;

  (* 5. The pre-processor rewrites ranks at line rate; a PIFO schedules
     the transformed ranks.  Offer the figure's seven packets. *)
  let pre = Qvisor.Preprocessor.of_plan plan in
  let pifo = Sched.Bucket_queue.create ~name:"pifo" ~capacity_pkts:16 () in
  let offer tenant rank =
    let p = Sched.Packet.make ~tenant ~rank ~flow:tenant ~size:1500 () in
    let raw = p.Sched.Packet.rank in
    Qvisor.Preprocessor.process pre p;
    Format.printf "  T%d rank %d -> %d@." tenant raw p.Sched.Packet.rank;
    ignore (pifo.Sched.Qdisc.enqueue p)
  in
  Format.printf "pre-processor transformations:@.";
  List.iter (fun (t, r) -> offer t r)
    [ (1, 9); (2, 1); (3, 3); (1, 7); (2, 3); (3, 5); (1, 8) ];

  Format.printf "@.PIFO service order:@.  ";
  List.iter
    (fun (p : Sched.Packet.t) ->
      Format.printf "T%d(rank %d) " p.Sched.Packet.tenant p.Sched.Packet.rank)
    (Sched.Qdisc.drain pifo);
  Format.printf
    "@.@.T1's packets drained first (isolation), then T2 and T3 interleaved \
     (sharing) — each tenant still in its own algorithm's order.@."
