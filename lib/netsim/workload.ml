(* Flow-size CDFs in bytes.  Shapes follow the distributions shipped with
   Netbench/pFabric; tails are capped at 30 MB (see DESIGN.md). *)

let data_mining () =
  Engine.Rng.Empirical.of_points
    [
      (180., 0.10);
      (216., 0.20);
      (560., 0.30);
      (900., 0.40);
      (1_100., 0.50);
      (60_000., 0.60);
      (380_000., 0.70);
      (2_000_000., 0.80);
      (10_000_000., 0.90);
      (30_000_000., 1.00);
    ]

let web_search () =
  Engine.Rng.Empirical.of_points
    [
      (6_000., 0.15);
      (13_000., 0.20);
      (19_000., 0.30);
      (33_000., 0.40);
      (53_000., 0.53);
      (133_000., 0.60);
      (667_000., 0.70);
      (1_467_000., 0.80);
      (3_333_000., 0.90);
      (6_667_000., 0.95);
      (20_000_000., 0.98);
      (30_000_000., 1.00);
    ]

let flow_arrival_rate ~load ~num_hosts ~access_rate ~mean_flow_size =
  load *. float_of_int num_hosts *. access_rate /. (8. *. mean_flow_size)

type arrivals = { mutable flows_started : int; mutable bytes_offered : int }

let poisson_open_loop ~sim ~rng ~transport ~tenant ~ranker ~num_hosts ~load
    ~access_rate ~dist ?window ?rto ~until ~on_complete () =
  if num_hosts < 2 then invalid_arg "Workload.poisson_open_loop: < 2 hosts";
  if load <= 0. then invalid_arg "Workload.poisson_open_loop: load <= 0";
  let mean_size = Engine.Rng.Empirical.mean dist in
  let rate = flow_arrival_rate ~load ~num_hosts ~access_rate ~mean_flow_size:mean_size in
  let mean_gap = 1. /. rate in
  let acc = { flows_started = 0; bytes_offered = 0 } in
  let rec next_arrival () =
    let gap = Engine.Rng.exponential rng ~mean:mean_gap in
    Engine.Sim.schedule_after_ sim ~delay:gap (fun () ->
        if Engine.Sim.now sim < until then begin
          let src, dst = Engine.Rng.pair_distinct rng ~n:num_hosts in
          let size =
            max 1 (int_of_float (Engine.Rng.Empirical.sample dist rng))
          in
          acc.flows_started <- acc.flows_started + 1;
          acc.bytes_offered <- acc.bytes_offered + size;
          ignore
            (Transport.start_flow transport ~tenant ~ranker ~src ~dst ~size
               ?window ?rto ~on_complete ());
          next_arrival ()
        end)
  in
  next_arrival ();
  acc

let cbr_tenant ~sim ~rng ~transport ~tenant ~ranker ~num_hosts ~flows ~rate
    ?(deadline_budget = 1e-3) ~until () =
  if num_hosts < 2 then invalid_arg "Workload.cbr_tenant: < 2 hosts";
  if flows <= 0 then invalid_arg "Workload.cbr_tenant: flows <= 0";
  let _ = sim in
  List.init flows (fun _ ->
      let src, dst = Engine.Rng.pair_distinct rng ~n:num_hosts in
      let budget =
        Engine.Rng.float_range rng
          ~lo:(deadline_budget *. 0.5) ~hi:(deadline_budget *. 1.5)
      in
      Transport.start_cbr transport ~tenant ~ranker ~src ~dst ~rate
        ~deadline_budget:budget
        ~jitter:(Engine.Rng.split rng)
        ~until ())
