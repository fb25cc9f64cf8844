(* Engine.Tsdb: the fixed-memory multi-resolution retention store.
   Ring wraparound at every tier boundary, counter-reset rate handling,
   downsample alignment invariants, annotation ordering, and the
   documented memory bound. *)

module Tsdb = Engine.Tsdb

let tiers =
  [
    { Tsdb.resolution = 1.; slots = 10 };
    { Tsdb.resolution = 10.; slots = 12 };
    { Tsdb.resolution = 60.; slots = 4 };
  ]

let mk () = Tsdb.create ~tiers ()

let points_of r =
  Array.to_list r.Tsdb.r_points
  |> List.map (function
       | None -> None
       | Some (p : Tsdb.point) -> Some (p.Tsdb.p_count, p.Tsdb.p_sum))

let query_exn t ~name ~start ~stop ?step () =
  match Tsdb.query t ~name ~start ~stop ?step () with
  | Some r -> r
  | None -> Alcotest.failf "query %S [%g,%g) returned None" name start stop

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

let test_create_validation () =
  let bad tiers msg =
    try
      ignore (Tsdb.create ~tiers ());
      Alcotest.failf "create accepted %s" msg
    with Invalid_argument _ -> ()
  in
  bad [] "an empty tier list";
  bad [ { Tsdb.resolution = 0.; slots = 4 } ] "a zero resolution";
  bad [ { Tsdb.resolution = 1.; slots = 0 } ] "zero slots";
  bad
    [ { Tsdb.resolution = 10.; slots = 4 }; { Tsdb.resolution = 1.; slots = 40 } ]
    "coarsest-first ordering";
  bad
    [ { Tsdb.resolution = 1.; slots = 100 }; { Tsdb.resolution = 10.; slots = 2 } ]
    "a coarser tier with shorter retention";
  ignore (Tsdb.create ())

let test_kind_stable () =
  let t = mk () in
  ignore (Tsdb.series t ~kind:Tsdb.Counter "x");
  (* Same kind re-interns to the same rings... *)
  ignore (Tsdb.series t ~kind:Tsdb.Counter "x");
  Alcotest.(check int) "one series" 1 (Tsdb.series_count t);
  (* ...a different kind is a caller bug. *)
  try
    ignore (Tsdb.series t ~kind:Tsdb.Gauge "x");
    Alcotest.fail "kind change accepted"
  with Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Wraparound at each tier boundary                                   *)
(* ------------------------------------------------------------------ *)

(* One gauge sample per second for 130 s.  The 1 s x 10 tier must hold
   exactly the last 10 s, the 10 s x 12 tier the last 120 s, and the
   60 s x 4 tier everything (240 s retention > 130 s run). *)
let test_wraparound_tiers () =
  let t = mk () in
  let s = Tsdb.series t ~kind:Tsdb.Gauge "g" in
  for sec = 0 to 129 do
    Tsdb.observe t s ~time:(float_of_int sec) (float_of_int sec)
  done;
  (* Raw tier: the last 10 whole seconds are live, anything older lapped. *)
  let r = query_exn t ~name:"g" ~start:120. ~stop:130. () in
  Alcotest.(check (float 0.)) "raw step" 1. r.Tsdb.r_step;
  Array.iteri
    (fun i p ->
      match p with
      | Some (p : Tsdb.point) ->
        Alcotest.(check (float 0.))
          (Printf.sprintf "raw bucket %d holds its own second" i)
          (120. +. float_of_int i)
          p.Tsdb.p_last
      | None -> Alcotest.failf "raw bucket %d empty" i)
    r.Tsdb.r_points;
  (* One second older than raw retention: the slot was recycled, so the
     same query window served from the raw tier has no bucket 119...
     but the 10 s tier still covers it, and choose_ring must fall back. *)
  let r = query_exn t ~name:"g" ~start:110. ~stop:130. () in
  Alcotest.(check (float 0.)) "falls back to the 10s tier" 10. r.Tsdb.r_step;
  (* The 10 s tier aggregates 10 raw samples per bucket. *)
  Array.iter
    (function
      | Some (p : Tsdb.point) ->
        Alcotest.(check int) "10 samples per 10s bucket" 10 p.Tsdb.p_count
      | None -> Alcotest.fail "10s bucket empty")
    r.Tsdb.r_points;
  (* Beyond the 10 s tier's 120 s retention, only the 60 s tier covers. *)
  let r = query_exn t ~name:"g" ~start:0. ~stop:130. () in
  Alcotest.(check (float 0.)) "falls back to the 60s tier" 60. r.Tsdb.r_step;
  (match r.Tsdb.r_points.(0) with
  | Some p ->
    Alcotest.(check int) "first minute fully retained" 60 p.Tsdb.p_count;
    Alcotest.(check (float 1e-9)) "its mean is 29.5"
      29.5
      (p.Tsdb.p_sum /. float_of_int p.Tsdb.p_count)
  | None -> Alcotest.fail "first minute lapped in the 60s tier");
  (* A stale write into a lapped raw bucket must not clobber newer data. *)
  Tsdb.observe t s ~time:5. 9999.;
  let r = query_exn t ~name:"g" ~start:120. ~stop:130. () in
  (match r.Tsdb.r_points.(5) with
  | Some p ->
    Alcotest.(check (float 0.)) "stale write dropped" 125. p.Tsdb.p_last
  | None -> Alcotest.fail "bucket 125 empty")

(* ------------------------------------------------------------------ *)
(* Counter semantics                                                  *)
(* ------------------------------------------------------------------ *)

let test_counter_increments () =
  let t = mk () in
  let s = Tsdb.series t ~kind:Tsdb.Counter "c" in
  (* Cumulative 0,3,10 -> increments 0,3,7. *)
  Tsdb.observe t s ~time:0.5 0.;
  Tsdb.observe t s ~time:1.5 3.;
  Tsdb.observe t s ~time:2.5 10.;
  let r = query_exn t ~name:"c" ~start:0. ~stop:3. () in
  Alcotest.(check (list (option (pair int (float 0.)))))
    "per-bucket increases"
    [ Some (1, 0.); Some (1, 3.); Some (1, 7.) ]
    (points_of r)

let test_counter_reset () =
  let t = mk () in
  let s = Tsdb.series t ~kind:Tsdb.Counter "c" in
  Tsdb.observe t s ~time:0.5 100.;
  Tsdb.observe t s ~time:1.5 110.;
  (* The process restarted: cumulative fell to 4.  Prometheus rate()
     semantics: the post-reset value is itself the increment. *)
  Tsdb.observe t s ~time:2.5 4.;
  Tsdb.observe t s ~time:3.5 6.;
  let r = query_exn t ~name:"c" ~start:0. ~stop:4. () in
  Alcotest.(check (list (option (pair int (float 0.)))))
    "reset yields the post-reset value, not a negative rate"
    [ Some (1, 0.); Some (1, 10.); Some (1, 4.); Some (1, 2.) ]
    (points_of r)

(* ------------------------------------------------------------------ *)
(* Downsample alignment                                               *)
(* ------------------------------------------------------------------ *)

let test_alignment_invariants () =
  let t = mk () in
  let s = Tsdb.series t ~kind:Tsdb.Gauge "g" in
  for tick = 0 to 99 do
    Tsdb.observe t s ~time:(0.1 *. float_of_int tick) 1.
  done;
  List.iter
    (fun (start, stop, step) ->
      let r = query_exn t ~name:"g" ~start ~stop ?step () in
      let sr = r.Tsdb.r_step in
      (* The effective step is a whole multiple of some tier resolution
         and at least the requested step. *)
      (match step with
      | Some st ->
        Alcotest.(check bool)
          (Printf.sprintf "step %g >= requested %g" sr st)
          true (sr >= st -. 1e-9)
      | None -> ());
      let quotient = r.Tsdb.r_start /. sr in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "r_start %g aligned to step %g" r.Tsdb.r_start sr)
        (Float.round quotient) quotient;
      Alcotest.(check bool) "r_start covers start" true
        (r.Tsdb.r_start <= start +. 1e-9);
      let n = Array.length r.Tsdb.r_points in
      Alcotest.(check bool) "bounded length" true (n <= Tsdb.max_points);
      Alcotest.(check bool) "window covered" true
        (r.Tsdb.r_start +. (float_of_int n *. sr) >= stop -. 1e-9))
    [
      (0., 9.9, None);
      (0.25, 7.75, Some 0.5);
      (3., 9., Some 2.);
      (0., 9.9, Some 3.);
    ]

let test_max_points_cap () =
  (* 4000 one-second buckets requested at step 1 must widen, not grow. *)
  let t =
    Tsdb.create ~tiers:[ { Tsdb.resolution = 1.; slots = 4000 } ] ()
  in
  let s = Tsdb.series t ~kind:Tsdb.Gauge "g" in
  for sec = 0 to 3999 do
    Tsdb.observe t s ~time:(float_of_int sec) 1.
  done;
  let r = query_exn t ~name:"g" ~start:0. ~stop:4000. ~step:1. () in
  Alcotest.(check bool) "capped" true
    (Array.length r.Tsdb.r_points <= Tsdb.max_points);
  Alcotest.(check (float 0.)) "step widened to fit" 8. r.Tsdb.r_step;
  Array.iter
    (function
      | Some (p : Tsdb.point) ->
        Alcotest.(check int) "widened buckets merge 8 samples" 8 p.Tsdb.p_count
      | None -> Alcotest.fail "gap in a fully-written ring")
    r.Tsdb.r_points

let test_query_edge_cases () =
  let t = mk () in
  Alcotest.(check bool) "unknown series" true
    (Tsdb.query t ~name:"nope" ~start:0. ~stop:1. () = None);
  let s = Tsdb.series t ~kind:Tsdb.Gauge "g" in
  Tsdb.observe t s ~time:1. 1.;
  Alcotest.(check bool) "empty interval" true
    (Tsdb.query t ~name:"g" ~start:5. ~stop:5. () = None);
  (* NaN dropped, negative time clamped — neither must corrupt state. *)
  Tsdb.observe t s ~time:2. Float.nan;
  Tsdb.observe t s ~time:(-3.) 7.;
  let r = query_exn t ~name:"g" ~start:0. ~stop:3. () in
  match r.Tsdb.r_points.(0) with
  | Some p ->
    Alcotest.(check (float 0.)) "negative time landed in bucket 0" 7.
      p.Tsdb.p_last
  | None -> Alcotest.fail "bucket 0 empty"

(* ------------------------------------------------------------------ *)
(* Memory bound                                                       *)
(* ------------------------------------------------------------------ *)

let test_memory_bound () =
  let t = mk () in
  (* (10 + 12 + 4) slots x 6 words x 8 bytes. *)
  Alcotest.(check int) "per-series bytes" ((10 + 12 + 4) * 6 * 8)
    (Tsdb.per_series_bytes t);
  Alcotest.(check int) "empty store" 0 (Tsdb.memory_bytes t);
  let s1 = Tsdb.series t ~kind:Tsdb.Gauge "a" in
  let s2 = Tsdb.series t ~kind:Tsdb.Counter "b" in
  let bound = 2 * Tsdb.per_series_bytes t in
  Alcotest.(check int) "two series" bound (Tsdb.memory_bytes t);
  (* The bound is independent of run length: a million observations
     later it has not moved. *)
  for i = 0 to 999_999 do
    let time = 0.001 *. float_of_int i in
    Tsdb.observe t s1 ~time 1.;
    Tsdb.observe t s2 ~time (float_of_int i)
  done;
  Alcotest.(check int) "unchanged after 1M observations" bound
    (Tsdb.memory_bytes t);
  Alcotest.(check int) "default tiers per-series"
    25_920
    (Tsdb.per_series_bytes (Tsdb.create ()))

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

(* One 1 s tier wide enough that no bucket below 8 s is ever lapped: the
   shape churn's activity plot uses. *)
let render observations =
  let t = Tsdb.create ~tiers:[ { Tsdb.resolution = 1.; slots = 8 } ] () in
  let s = Tsdb.series t ~kind:Tsdb.Gauge "bytes" in
  List.iter (fun (time, v) -> Tsdb.observe t s ~time v) observations;
  Format.asprintf "%a" Tsdb.pp_sums
    (query_exn t ~name:"bytes" ~start:0. ~stop:8. ())

let bar n = String.make n '#'

let test_render_basic () =
  Alcotest.(check string) "an empty bucket inside the span prints 0"
    (Printf.sprintf "   0.000 | %s 15\n   1.000 |  0\n   2.000 | %s 7\n"
       (bar 40) (bar 18))
    (render [ (0.5, 10.); (0.9, 5.); (2.1, 7.) ])

let test_render_out_of_order () =
  Alcotest.(check string) "spans the earliest to the latest bucket"
    (Printf.sprintf
       "   1.000 | %s 2\n   2.000 |  0\n   3.000 |  0\n   4.000 |  0\n\
       \   5.000 | %s 1\n"
       (bar 40) (bar 20))
    (render [ (5.0, 1.); (1.0, 2.) ])

let test_render_empty () =
  Alcotest.(check string) "no data" "(empty)" (render [])

(* ------------------------------------------------------------------ *)
(* Annotations                                                        *)
(* ------------------------------------------------------------------ *)

let test_annotation_ordering () =
  let t = Tsdb.create () in
  let ann time kind = Tsdb.annotate t ~time ~kind ~detail:kind () in
  (* Recorded out of order: reads come back time-sorted. *)
  ann 3. "c";
  ann 1. "a";
  ann 2. "b";
  let kinds l = List.map (fun (a : Tsdb.annotation) -> a.Tsdb.a_kind) l in
  Alcotest.(check (list string)) "sorted by time" [ "a"; "b"; "c" ]
    (kinds (Tsdb.annotations t));
  Alcotest.(check (list string)) "window filter is [start, stop)" [ "b" ]
    (kinds (Tsdb.annotations ~start:2. ~stop:3. t));
  (* Overflow: the ring holds 256, so the oldest-recorded entry is
     overwritten. *)
  for i = 1 to 252 do
    ann (100. +. float_of_int i) "f"
  done;
  ann 5. "d";
  ann 4. "e";
  Alcotest.(check int) "total counts overwritten entries" 257
    (Tsdb.annotations_total t);
  let retained = kinds (Tsdb.annotations t) in
  Alcotest.(check int) "ring holds 256" 256 (List.length retained);
  Alcotest.(check (list string)) "oldest-recorded dropped, rest sorted"
    [ "a"; "b"; "e"; "d"; "f" ]
    (List.filteri (fun i _ -> i < 5) retained)

let test_annotation_tenant () =
  let t = Tsdb.create () in
  Tsdb.annotate t ~time:1. ~kind:"health" ~tenant:"pfabric" ~detail:"d" ();
  match Tsdb.annotations t with
  | [ a ] ->
    Alcotest.(check (option string)) "tenant carried" (Some "pfabric")
      a.Tsdb.a_tenant
  | l -> Alcotest.failf "expected 1 annotation, got %d" (List.length l)

let () =
  Alcotest.run "tsdb"
    [
      ( "create",
        [
          Alcotest.test_case "tier validation" `Quick test_create_validation;
          Alcotest.test_case "kind stability" `Quick test_kind_stable;
        ] );
      ( "rings",
        [
          Alcotest.test_case "wraparound at each tier" `Quick
            test_wraparound_tiers;
          Alcotest.test_case "counter increments" `Quick
            test_counter_increments;
          Alcotest.test_case "counter reset" `Quick test_counter_reset;
        ] );
      ( "query",
        [
          Alcotest.test_case "alignment invariants" `Quick
            test_alignment_invariants;
          Alcotest.test_case "max_points cap" `Quick test_max_points_cap;
          Alcotest.test_case "edge cases" `Quick test_query_edge_cases;
        ] );
      ( "memory",
        [ Alcotest.test_case "fixed bound" `Quick test_memory_bound ] );
      ( "render",
        [
          Alcotest.test_case "basic" `Quick test_render_basic;
          Alcotest.test_case "out of order" `Quick test_render_out_of_order;
          Alcotest.test_case "empty" `Quick test_render_empty;
        ] );
      ( "annotations",
        [
          Alcotest.test_case "ordering and overflow" `Quick
            test_annotation_ordering;
          Alcotest.test_case "tenant tag" `Quick test_annotation_tenant;
        ] );
    ]
