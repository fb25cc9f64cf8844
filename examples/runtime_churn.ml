(* The paper's Fig. 2 timeline, run through the runtime controller
   (ablation A3): tenants T1 (pFabric) and T2 (EDF) are active first;
   at t1 a background tenant T3 joins with the lowest priority, and the
   controller re-synthesizes and hot-swaps the pre-processor without
   touching the data plane's scheduler.

   We send a burst through a PIFO before and after the churn and check the
   service order each time.  We also exercise `refresh`: after observing
   that T1 only uses a sliver of its declared rank range, re-synthesis
   from observations improves T1's effective resolution.

   Run with:  dune exec examples/runtime_churn.exe *)

let burst rt pifo specs =
  List.iter
    (fun (tenant, rank) ->
      let p = Sched.Packet.make ~tenant ~rank ~flow:tenant ~size:1500 () in
      Qvisor.Runtime.process rt p;
      ignore (pifo.Sched.Qdisc.enqueue p))
    specs;
  List.map (fun (p : Sched.Packet.t) -> p.Sched.Packet.tenant)
    (Sched.Qdisc.drain pifo)

let pp_order ppf order =
  List.iter (fun t -> Format.fprintf ppf "T%d " t) order

let () =
  let t1 =
    Qvisor.Tenant.make ~algorithm:"pfabric" ~rank_lo:0 ~rank_hi:30_000 ~id:1
      ~name:"T1" ()
  in
  let t2 =
    Qvisor.Tenant.make ~algorithm:"edf" ~rank_lo:0 ~rank_hi:150 ~id:2
      ~name:"T2" ()
  in
  let rt =
    Qvisor.Runtime.create_exn ~tenants:[ t1; t2 ]
      ~policy:(Qvisor.Policy.parse_exn "T1 + T2")
      ()
  in
  let pifo = Sched.Bucket_queue.create ~name:"pifo" ~capacity_pkts:64 () in

  (* Before t1: T1 and T2 share. *)
  Format.printf "t < t1 — policy %a@."
    Qvisor.Policy.pp (Qvisor.Runtime.plan rt).Qvisor.Synthesizer.policy;
  let order =
    burst rt pifo [ (1, 20_000); (2, 10); (1, 50); (2, 140); (1, 9_000) ]
  in
  Format.printf "  service order: %a@.@." pp_order order;

  (* t1: the background tenant T3 arrives.  The operator extends the
     policy; the controller re-synthesizes and swaps the plan. *)
  let t3 =
    Qvisor.Tenant.make ~algorithm:"stfq" ~rank_lo:0 ~rank_hi:5_000 ~id:3
      ~name:"T3" ()
  in
  (match
     Qvisor.Runtime.add_tenant rt t3
       ~policy:(Qvisor.Policy.parse_exn "T1 + T2 >> T3") ()
   with
  | Ok () -> Format.printf "t = t1 — T3 joined; plan re-synthesized (%d swaps)@."
               (Qvisor.Runtime.resyntheses rt)
  | Error e -> failwith (Qvisor.Error.to_string e));
  let order =
    burst rt pifo
      [ (3, 100); (3, 2_000); (1, 20_000); (2, 10); (1, 50); (2, 140) ]
  in
  Format.printf "  service order: %a (T3 strictly last)@.@." pp_order order;

  (* Observation-driven refresh: T1's traffic actually only spans ranks
     0..100 (all-small-flows phase).  `refresh` adopts observed ranges. *)
  List.iter
    (fun rank ->
      Qvisor.Runtime.process rt
        (Sched.Packet.make ~tenant:1 ~rank ~flow:1 ~size:1500 ()))
    [ 0; 10; 40; 100 ];
  (match Qvisor.Runtime.refresh rt with
  | Ok () -> ()
  | Error e -> failwith (Qvisor.Error.to_string e));
  let a =
    List.find
      (fun a -> a.Qvisor.Synthesizer.tenant.Qvisor.Tenant.id = 1)
      (Qvisor.Runtime.plan rt).Qvisor.Synthesizer.assignments
  in
  let observed_lo = a.Qvisor.Synthesizer.tenant.Qvisor.Tenant.rank_lo in
  let observed_hi = a.Qvisor.Synthesizer.tenant.Qvisor.Tenant.rank_hi in
  Format.printf
    "after refresh — T1's transformation source range tightened to [%d, %d] \
     (declared [0, 30000]), improving its band resolution %dx@."
    observed_lo observed_hi
    (30_001 / (observed_hi - observed_lo + 1));

  (* Tenants T1 and T2 leave (beyond t1 in Fig. 2): only T3 remains. *)
  (match
     Qvisor.Runtime.remove_tenant rt ~tenant_id:1
       ~policy:(Qvisor.Policy.parse_exn "T2 >> T3") ()
   with
  | Ok () -> ()
  | Error e -> failwith (Qvisor.Error.to_string e));
  (match
     Qvisor.Runtime.remove_tenant rt ~tenant_id:2
       ~policy:(Qvisor.Policy.parse_exn "T3") ()
   with
  | Ok () -> ()
  | Error e -> failwith (Qvisor.Error.to_string e));
  Format.printf
    "after departures — %d re-syntheses total; T3 now owns the whole rank \
     space: %a@."
    (Qvisor.Runtime.resyntheses rt)
    Qvisor.Synthesizer.pp_plan (Qvisor.Runtime.plan rt)
