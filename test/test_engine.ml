(* Tests for the discrete-event engine: Rng, Vec, Timer_wheel, Sim,
   Stats, and the streaming quantiles of Telemetry.Histogram. *)

let check_float = Alcotest.(check (float 1e-9))

let check_close msg ~tolerance expected actual =
  Alcotest.(check (float tolerance)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Engine.Rng.create ~seed:42 in
  let b = Engine.Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check_float "same stream" (Engine.Rng.float a) (Engine.Rng.float b)
  done

let test_rng_seed_sensitivity () =
  let a = Engine.Rng.create ~seed:1 in
  let b = Engine.Rng.create ~seed:2 in
  let distinct = ref false in
  for _ = 1 to 10 do
    if Engine.Rng.float a <> Engine.Rng.float b then distinct := true
  done;
  Alcotest.(check bool) "streams differ" true !distinct

let test_rng_split_independent () =
  let parent = Engine.Rng.create ~seed:7 in
  let child = Engine.Rng.split parent in
  let child_draws = Array.init 10 (fun _ -> Engine.Rng.float child) in
  (* A parent re-split from the same point yields the same child stream. *)
  let parent' = Engine.Rng.create ~seed:7 in
  let child' = Engine.Rng.split parent' in
  Array.iter
    (fun expected -> check_float "split deterministic" expected (Engine.Rng.float child'))
    child_draws

let test_rng_copy () =
  let a = Engine.Rng.create ~seed:3 in
  ignore (Engine.Rng.float a);
  let b = Engine.Rng.copy a in
  check_float "copy continues identically" (Engine.Rng.float a) (Engine.Rng.float b)

(* The first draws of two seeds, recorded from the boxed-[int64]
   implementation: a change of the state's representation must keep every
   stream bit for bit. *)
let test_rng_known_answers () =
  List.iter
    (fun (seed, ints, floats, split_ints, after) ->
      let r = Engine.Rng.create ~seed in
      let name what = Printf.sprintf "seed %d %s" seed what in
      List.iter
        (fun want -> Alcotest.(check int) (name "int") want (Engine.Rng.int r))
        ints;
      List.iter
        (fun want ->
          Alcotest.(check (float 0.)) (name "float") want (Engine.Rng.float r))
        floats;
      let child = Engine.Rng.split r in
      List.iter
        (fun want ->
          Alcotest.(check int) (name "split int") want (Engine.Rng.int child))
        split_ints;
      Alcotest.(check int) (name "int after split") after (Engine.Rng.int r))
    [
      ( 1,
        [ 3457603482011350492; 1717361541646166673 ],
        [ 0x1.c0cd7f0f6bcf6p-2; 0x1.e881fc76c58f3p-1 ],
        [ 949687826934003247; 32005062392279094 ],
        2747494643000335897 );
      ( 42,
        [ 2749113066540076570; 739554815828047797 ],
        [ 0x1.54c85f31d00d8p-3; 0x1.896d649de031p-5 ],
        [ 1670432612978786612; 3442499342175544181 ],
        1084310982420964528 );
    ]

(* Draws allocate nothing: the state is updated in place, unboxed.
   [float]'s result is unboxed here because it inlines into its caller,
   which needs a build without -opaque (the default profile). *)
let test_rng_draws_allocate_nothing () =
  let r = Engine.Rng.create ~seed:5 in
  let words f =
    let w0 = Gc.minor_words () in
    for _ = 1 to 10_000 do
      f ()
    done;
    Gc.minor_words () -. w0
  in
  List.iter
    (fun (name, f) -> Alcotest.(check (float 0.)) name 0. (words f))
    [
      ("int", fun () -> ignore (Engine.Rng.int r));
      ("int_range", fun () -> ignore (Engine.Rng.int_range r ~lo:0 ~hi:99));
      ("bool", fun () -> ignore (Engine.Rng.bool r));
      (* Compared, as the trace sink uses it: [ignore] would box it. *)
      ("float", fun () -> ignore (Engine.Rng.float r < 0.5));
    ]

let test_rng_float_bounds () =
  let r = Engine.Rng.create ~seed:11 in
  for _ = 1 to 10_000 do
    let x = Engine.Rng.float r in
    if x < 0. || x >= 1. then Alcotest.failf "float out of [0,1): %g" x
  done

let test_rng_float_mean () =
  let r = Engine.Rng.create ~seed:5 in
  let s = Engine.Stats.create () in
  for _ = 1 to 50_000 do
    Engine.Stats.add s (Engine.Rng.float r)
  done;
  check_close "uniform mean ~ 0.5" ~tolerance:0.01 0.5 (Engine.Stats.mean s)

let test_rng_int_range () =
  let r = Engine.Rng.create ~seed:13 in
  let seen = Array.make 5 false in
  for _ = 1 to 1_000 do
    let x = Engine.Rng.int_range r ~lo:10 ~hi:14 in
    if x < 10 || x > 14 then Alcotest.failf "int_range out of range: %d" x;
    seen.(x - 10) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_rng_int_range_singleton () =
  let r = Engine.Rng.create ~seed:1 in
  Alcotest.(check int) "singleton" 9 (Engine.Rng.int_range r ~lo:9 ~hi:9)

let test_rng_int_range_invalid () =
  let r = Engine.Rng.create ~seed:1 in
  Alcotest.check_raises "lo > hi" (Invalid_argument "Rng.int_range: lo > hi")
    (fun () -> ignore (Engine.Rng.int_range r ~lo:2 ~hi:1))

let test_rng_exponential_mean () =
  let r = Engine.Rng.create ~seed:17 in
  let s = Engine.Stats.create () in
  for _ = 1 to 100_000 do
    Engine.Stats.add s (Engine.Rng.exponential r ~mean:3.0)
  done;
  check_close "exponential mean" ~tolerance:0.1 3.0 (Engine.Stats.mean s)

let test_rng_exponential_positive () =
  let r = Engine.Rng.create ~seed:19 in
  for _ = 1 to 10_000 do
    if Engine.Rng.exponential r ~mean:1.0 < 0. then
      Alcotest.fail "negative exponential draw"
  done

let test_rng_pair_distinct () =
  let r = Engine.Rng.create ~seed:29 in
  for _ = 1 to 10_000 do
    let a, b = Engine.Rng.pair_distinct r ~n:5 in
    if a = b then Alcotest.fail "pair not distinct";
    if a < 0 || a >= 5 || b < 0 || b >= 5 then Alcotest.fail "pair out of range"
  done

let test_rng_shuffle_permutation () =
  let r = Engine.Rng.create ~seed:31 in
  let a = Array.init 100 Fun.id in
  Engine.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 Fun.id) sorted

let test_empirical_point_mass () =
  let d = Engine.Rng.Empirical.of_points [ (5.0, 1.0) ] in
  let r = Engine.Rng.create ~seed:37 in
  for _ = 1 to 100 do
    check_float "always 5" 5.0 (Engine.Rng.Empirical.sample d r)
  done;
  check_float "mean" 5.0 (Engine.Rng.Empirical.mean d)

let test_empirical_mean_uniform () =
  (* CDF linear from (0,0) to (10,1) is Uniform(0,10): mean 5. *)
  let d = Engine.Rng.Empirical.of_points [ (0.0, 0.0); (10.0, 1.0) ] in
  check_float "analytic mean" 5.0 (Engine.Rng.Empirical.mean d);
  let r = Engine.Rng.create ~seed:41 in
  let s = Engine.Stats.create () in
  for _ = 1 to 50_000 do
    Engine.Stats.add s (Engine.Rng.Empirical.sample d r)
  done;
  check_close "sample mean" ~tolerance:0.1 5.0 (Engine.Stats.mean s)

let test_empirical_sample_range () =
  let d =
    Engine.Rng.Empirical.of_points [ (1.0, 0.3); (10.0, 0.7); (100.0, 1.0) ]
  in
  let r = Engine.Rng.create ~seed:43 in
  for _ = 1 to 10_000 do
    let x = Engine.Rng.Empirical.sample d r in
    if x < 1.0 || x > 100.0 then Alcotest.failf "sample out of support: %g" x
  done

let test_empirical_invalid () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty" true
    (raises (fun () -> ignore (Engine.Rng.Empirical.of_points [])));
  Alcotest.(check bool) "non-increasing values" true
    (raises (fun () ->
         ignore (Engine.Rng.Empirical.of_points [ (2.0, 0.5); (1.0, 1.0) ])));
  Alcotest.(check bool) "cdf not ending at 1" true
    (raises (fun () ->
         ignore (Engine.Rng.Empirical.of_points [ (1.0, 0.5); (2.0, 0.9) ])));
  Alcotest.(check bool) "decreasing cdf" true
    (raises (fun () ->
         ignore
           (Engine.Rng.Empirical.of_points [ (1.0, 0.5); (2.0, 0.4); (3.0, 1.0) ])))

(* ------------------------------------------------------------------ *)
(* Vec                                                                *)
(* ------------------------------------------------------------------ *)

let vec_of_list l =
  let v = Engine.Vec.create () in
  List.iter (Engine.Vec.add_last v) l;
  v

let test_vec_basic () =
  let v = Engine.Vec.create () in
  Alcotest.(check int) "empty" 0 (Engine.Vec.length v);
  for i = 0 to 99 do
    Engine.Vec.add_last v i
  done;
  Alcotest.(check int) "length" 100 (Engine.Vec.length v);
  Alcotest.(check int) "get 0" 0 (Engine.Vec.get v 0);
  Alcotest.(check int) "get 99" 99 (Engine.Vec.get v 99)

let test_vec_bounds () =
  let v = vec_of_list [ 1; 2; 3 ] in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "get -1" true (raises (fun () -> ignore (Engine.Vec.get v (-1))));
  Alcotest.(check bool) "get len" true (raises (fun () -> ignore (Engine.Vec.get v 3)))

let test_vec_conversions () =
  let v = vec_of_list [ 5; 6; 7 ] in
  Alcotest.(check (array int)) "to_array" [| 5; 6; 7 |] (Engine.Vec.to_array v);
  let sum = ref 0 in
  Engine.Vec.iter (fun x -> sum := !sum + x) v;
  Alcotest.(check int) "iter" 18 !sum

(* ------------------------------------------------------------------ *)
(* Timer wheel                                                        *)
(* ------------------------------------------------------------------ *)

(* The wheel's horizon at the defaults is 2^12 ticks of 2^-24 s, about
   244 us; times comfortably beyond it exercise the overflow heap. *)
let tick = 0x1p-24
let horizon = 4096. *. tick
let far = 1e-3

let new_wheel () = Engine.Timer_wheel.create ~empty:(-1) ()

(* Pop the earliest event due by [horizon], as (time, payload). *)
let tw_pop ?(horizon = infinity) q =
  let i = Engine.Timer_wheel.pop_before q ~horizon in
  if i < 0 then None
  else
    let time = Engine.Timer_wheel.time q i in
    Some (time, Engine.Timer_wheel.take q i)

let tw_pop_exn q =
  match tw_pop q with Some x -> x | None -> Alcotest.fail "unexpected empty"

let test_tw_ordering () =
  let q = Engine.Timer_wheel.create ~empty:"" () in
  Engine.Timer_wheel.push q ~time:3e-6 "c";
  Engine.Timer_wheel.push q ~time:1e-6 "a";
  Engine.Timer_wheel.push q ~time:2e-6 "b";
  Alcotest.(check string) "first" "a" (snd (tw_pop_exn q));
  Alcotest.(check string) "second" "b" (snd (tw_pop_exn q));
  Alcotest.(check string) "third" "c" (snd (tw_pop_exn q));
  Alcotest.(check int) "empty" 0 (Engine.Timer_wheel.size q);
  Alcotest.(check (option (pair (float 0.) string))) "pop empty" None (tw_pop q)

let test_tw_same_instant_fifo () =
  (* FIFO among equal times must hold both inside a wheel slot and
     inside the overflow heap. *)
  let q = new_wheel () in
  for i = 0 to 9 do
    Engine.Timer_wheel.push q ~time:1e-6 i
  done;
  for i = 10 to 19 do
    Engine.Timer_wheel.push q ~time:far i
  done;
  Alcotest.(check int) "size" 20 (Engine.Timer_wheel.size q);
  for i = 0 to 19 do
    Alcotest.(check int) "FIFO among ties" i (snd (tw_pop_exn q))
  done

let test_tw_far_future_overflow () =
  (* Far-future events park in the overflow heap yet still interleave
     exactly with wheel-resident ones, including events pushed into the
     wheel after its base has advanced past the original horizon. *)
  let q = Engine.Timer_wheel.create ~empty:"" () in
  Engine.Timer_wheel.push q ~time:far "far";
  Engine.Timer_wheel.push q ~time:1e-6 "near";
  Engine.Timer_wheel.push q ~time:(2. *. far) "farther";
  Alcotest.(check string) "wheel first" "near" (snd (tw_pop_exn q));
  let t_far, x_far = tw_pop_exn q in
  Alcotest.(check string) "overflow next" "far" x_far;
  check_float "overflow time preserved" far t_far;
  (* The base now sits at [far]; a nearby time lands back in the wheel
     and must beat the remaining heap entry. *)
  Engine.Timer_wheel.push q ~time:(far +. 1e-6) "back-in-wheel";
  Alcotest.(check string) "rewheeled beats heap" "back-in-wheel"
    (snd (tw_pop_exn q));
  Alcotest.(check string) "heap drains last" "farther" (snd (tw_pop_exn q));
  Alcotest.(check int) "empty" 0 (Engine.Timer_wheel.size q)

let test_tw_non_finite () =
  (* +inf and times too large for a tick go to the overflow heap and pop
     after every finite event; nan is rejected. *)
  let q = Engine.Timer_wheel.create ~empty:"" () in
  Engine.Timer_wheel.push q ~time:infinity "inf";
  Engine.Timer_wheel.push q ~time:1e12 "huge";
  Engine.Timer_wheel.push q ~time:2e-6 "b";
  Engine.Timer_wheel.push q ~time:1e-6 "a";
  let raises time =
    match Engine.Timer_wheel.push q ~time "bad" with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "nan rejected" true (raises Float.nan);
  Alcotest.(check bool) "negative rejected" true (raises (-1e-6));
  Alcotest.(check int) "size" 4 (Engine.Timer_wheel.size q);
  Alcotest.(check (option (pair (float 0.) string)))
    "nothing due by 0.5 us" None (tw_pop ~horizon:0.5e-6 q);
  Alcotest.(check (list string)) "finite first, +inf last"
    [ "a"; "b"; "huge"; "inf" ]
    (List.init 4 (fun _ -> snd (tw_pop_exn q)));
  (* After popping a time beyond any tick the wheel still orders pushes. *)
  Engine.Timer_wheel.push q ~time:infinity "inf2";
  Engine.Timer_wheel.push q ~time:infinity "inf3";
  Alcotest.(check (list string)) "equal +inf times are FIFO" [ "inf2"; "inf3" ]
    (List.init 2 (fun _ -> snd (tw_pop_exn q)))

(* One step of a random schedule, decoded from three ints.  Offsets are
   relative to the last popped time (the wheel's contract) and straddle
   the horizon: ties with now, fractions of a tick (out-of-order times
   within one tick), a 10 us grid across 0-490 us (dense ties on both
   sides of the horizon), anywhere up to 4 horizons, and far beyond,
   +inf included. *)
type tw_op = Push of float | Pop | Pop_before of float

let decode_offset kind x =
  let u = float_of_int x /. 1e6 in
  match kind mod 5 with
  | 0 -> 0.
  | 1 -> u *. tick
  | 2 -> float_of_int (x mod 50) *. 10e-6
  | 3 -> u *. 4. *. horizon
  | _ -> if x mod 7 = 0 then infinity else 1. +. u

let decode_op (a, b, c) =
  match a mod 10 with
  | 0 | 1 | 2 | 3 | 4 -> Push (decode_offset b c)
  | 5 | 6 | 7 -> Pop
  | _ -> Pop_before (decode_offset b c)

let schedule_arb =
  QCheck.(
    list_of_size
      Gen.(0 -- 400)
      (triple (int_bound 9) (int_bound 4) (int_bound 1_000_000)))

(* The contract as a model: of the pending (time, id) events, kept in
   push order, the next pop is the head of [List.stable_sort] by time. *)
let model_next pending =
  match List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) pending with
  | [] -> None
  | head :: _ -> Some head

let prop_tw_matches_stable_sort =
  QCheck.Test.make ~name:"timer wheel matches stable sort" ~count:300
    schedule_arb (fun schedule ->
      let q = new_wheel () in
      let pending = ref [] and now = ref 0. and next_id = ref 0 in
      let pop_both horizon =
        let expected =
          match model_next !pending with
          | Some (time, id) when time <= horizon ->
            pending := List.filter (fun (_, i) -> i <> id) !pending;
            now := time;
            Some (time, id)
          | Some _ | None -> None
        in
        tw_pop ~horizon q = expected
      in
      let step ok op =
        ok
        &&
        match decode_op op with
        | Push offset ->
          let time = !now +. offset and id = !next_id in
          incr next_id;
          Engine.Timer_wheel.push q ~time id;
          pending := !pending @ [ (time, id) ];
          Engine.Timer_wheel.size q = List.length !pending
        | Pop -> pop_both infinity
        | Pop_before offset -> pop_both (!now +. offset)
      in
      let rec drain () =
        if !pending = [] then Engine.Timer_wheel.size q = 0
        else pop_both infinity && drain ()
      in
      List.fold_left step true schedule && drain ())

(* ------------------------------------------------------------------ *)
(* Sim                                                                *)
(* ------------------------------------------------------------------ *)

let test_sim_ordering () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  let note tag () = log := (tag, Engine.Sim.now sim) :: !log in
  ignore (Engine.Sim.schedule_at sim ~time:2.0 (note "b"));
  ignore (Engine.Sim.schedule_at sim ~time:1.0 (note "a"));
  ignore (Engine.Sim.schedule_at sim ~time:3.0 (note "c"));
  Engine.Sim.run sim;
  Alcotest.(check (list (pair string (float 1e-9))))
    "fired in order"
    [ ("a", 1.0); ("b", 2.0); ("c", 3.0) ]
    (List.rev !log)

let test_sim_cascade () =
  (* Events scheduling further events. *)
  let sim = Engine.Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 10 then ignore (Engine.Sim.schedule_after sim ~delay:1.0 tick)
  in
  ignore (Engine.Sim.schedule_after sim ~delay:1.0 tick);
  Engine.Sim.run sim;
  Alcotest.(check int) "ten ticks" 10 !count;
  check_float "clock at last tick" 10.0 (Engine.Sim.now sim)

let test_sim_cancel () =
  let sim = Engine.Sim.create () in
  let fired = ref false in
  let h = Engine.Sim.schedule_at sim ~time:1.0 (fun () -> fired := true) in
  Alcotest.(check bool) "pending" true (Engine.Sim.is_pending h);
  Engine.Sim.cancel h;
  Alcotest.(check bool) "not pending" false (Engine.Sim.is_pending h);
  Engine.Sim.run sim;
  Alcotest.(check bool) "never fired" false !fired

let test_sim_until () =
  let sim = Engine.Sim.create () in
  let fired = ref [] in
  List.iter
    (fun t ->
      ignore (Engine.Sim.schedule_at sim ~time:t (fun () -> fired := t :: !fired)))
    [ 1.0; 2.0; 3.0; 4.0 ];
  Engine.Sim.run ~until:2.5 sim;
  Alcotest.(check (list (float 1e-9))) "only early events" [ 1.0; 2.0 ]
    (List.rev !fired);
  check_float "clock advanced to horizon" 2.5 (Engine.Sim.now sim);
  Engine.Sim.run sim;
  Alcotest.(check (list (float 1e-9))) "rest after resume" [ 1.0; 2.0; 3.0; 4.0 ]
    (List.rev !fired)

(* A budgeted advance stops after [budget] events with the clock at the
   last one, and resuming it fires exactly what one [run ~until] would. *)
let test_sim_advance_budget () =
  let sim = Engine.Sim.create () in
  let fired = ref [] in
  List.iter
    (fun t ->
      ignore (Engine.Sim.schedule_at sim ~time:t (fun () -> fired := t :: !fired)))
    [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Alcotest.(check bool) "budget ran out first" false
    (Engine.Sim.advance sim ~until:3.5 ~budget:2);
  Alcotest.(check (list (float 1e-9))) "two events" [ 1.0; 2.0 ] (List.rev !fired);
  check_float "clock at the last event" 2.0 (Engine.Sim.now sim);
  Alcotest.(check bool) "horizon reached" true
    (Engine.Sim.advance sim ~until:3.5 ~budget:2);
  Alcotest.(check (list (float 1e-9))) "nothing past the horizon"
    [ 1.0; 2.0; 3.0 ] (List.rev !fired);
  check_float "clock advanced to horizon" 3.5 (Engine.Sim.now sim);
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero budget rejected" true
    (raises (fun () -> ignore (Engine.Sim.advance sim ~until:5.0 ~budget:0)))

let test_sim_past_rejected () =
  let sim = Engine.Sim.create () in
  ignore (Engine.Sim.schedule_at sim ~time:5.0 (fun () -> ()));
  Engine.Sim.run sim;
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "scheduling in the past raises" true
    (raises (fun () -> ignore (Engine.Sim.schedule_at sim ~time:1.0 (fun () -> ()))))

let test_sim_same_time_fifo () =
  let sim = Engine.Sim.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Engine.Sim.schedule_at sim ~time:1.0 (fun () -> log := i :: !log))
  done;
  Engine.Sim.run sim;
  Alcotest.(check (list int)) "same-time events fire FIFO"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_sim_handle_free_fifo () =
  (* Handle-free and handled events scheduled for the same instant still
     fire in scheduling order — the wheel sequences them globally. *)
  let sim = Engine.Sim.create () in
  let log = ref [] in
  for i = 0 to 9 do
    if i mod 2 = 0 then
      Engine.Sim.schedule_at_ sim ~time:1.0 (fun () -> log := i :: !log)
    else ignore (Engine.Sim.schedule_at sim ~time:1.0 (fun () -> log := i :: !log))
  done;
  Engine.Sim.run sim;
  Alcotest.(check (list int)) "mixed scheduling is FIFO"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let test_sim_cancel_far_future () =
  (* A cancellable event far beyond the wheel horizon lives in the
     overflow heap; cancelling it there must still work. *)
  let sim = Engine.Sim.create () in
  let fired = ref [] in
  Engine.Sim.schedule_at_ sim ~time:1e-6 (fun () -> fired := "near" :: !fired);
  let h = Engine.Sim.schedule_at sim ~time:1.0 (fun () -> fired := "far" :: !fired) in
  Engine.Sim.cancel h;
  Engine.Sim.run sim;
  Alcotest.(check (list string)) "only the near event fired" [ "near" ] !fired;
  Alcotest.(check int) "cancelled event not counted" 1
    (Engine.Sim.events_fired sim)

let test_sim_non_finite () =
  (* A nan time or delay is rejected rather than firing first and leaving
     the clock at nan; +inf is a valid time that fires after every
     finite one. *)
  let sim = Engine.Sim.create () in
  let raises f = try f (); false with Invalid_argument _ -> true in
  let nop () = () in
  Alcotest.(check bool) "nan delay (handle-free)" true
    (raises (fun () -> Engine.Sim.schedule_after_ sim ~delay:Float.nan nop));
  Alcotest.(check bool) "nan delay" true
    (raises (fun () -> ignore (Engine.Sim.schedule_after sim ~delay:Float.nan nop)));
  Alcotest.(check bool) "nan time (handle-free)" true
    (raises (fun () -> Engine.Sim.schedule_at_ sim ~time:Float.nan nop));
  Alcotest.(check bool) "nan time" true
    (raises (fun () -> ignore (Engine.Sim.schedule_at sim ~time:Float.nan nop)));
  Alcotest.(check bool) "nan horizon" true
    (raises (fun () -> ignore (Engine.Sim.advance sim ~until:Float.nan ~budget:1)));
  let log = ref [] in
  let note tag () = log := (tag, Engine.Sim.now sim) :: !log in
  Engine.Sim.schedule_after_ sim ~delay:infinity (note "inf");
  Engine.Sim.schedule_after_ sim ~delay:1e-3 (note "1ms");
  Engine.Sim.schedule_after_ sim ~delay:1e-6 (note "1us");
  Engine.Sim.run ~until:1. sim;
  Alcotest.(check (list (pair string (float 0.)))) "finite events in order"
    [ ("1us", 1e-6); ("1ms", 1e-3) ]
    (List.rev !log);
  check_float "clock at the horizon" 1. (Engine.Sim.now sim);
  Engine.Sim.run sim;
  Alcotest.(check (list string)) "+inf fires last" [ "1us"; "1ms"; "inf" ]
    (List.rev_map fst !log)

let test_sim_releases_fired_thunks () =
  (* A fired event's pool slot must not keep its thunk, or whatever the
     thunk captured, alive. *)
  let sim = Engine.Sim.create () in
  let sum = ref 0 in
  for i = 1 to 200 do
    let payload = Array.make 1_000 i in
    Engine.Sim.schedule_at_ sim ~time:(float_of_int i *. 1e-6) (fun () ->
        sum := !sum + payload.(0))
  done;
  Engine.Sim.run sim;
  Alcotest.(check int) "all fired" (200 * 201 / 2) !sum;
  let words = Obj.reachable_words (Obj.repr sim) in
  Alcotest.(check bool)
    (Printf.sprintf "%d words reachable, far below the 200,000 captured" words)
    true (words < 20_000)

(* Sim over a random schedule of handle-free and cancellable events,
   cancellations and budgeted advances, against a model: each advance
   pops, in stable-sort order by time, at most [budget] pending events due
   by its horizon; a cancelled event counts against the budget and moves
   the clock but does not fire. *)
let prop_sim_matches_stable_sort =
  QCheck.Test.make ~name:"sim matches stable sort with cancellations"
    ~count:300 schedule_arb (fun schedule ->
      let sim = Engine.Sim.create () in
      let fired = ref [] and expected = ref [] in
      let pending = ref [] (* (time, id, cancelled) in push order *)
      and handles = ref [] and next_id = ref 0 and clock = ref 0. in
      let model_advance until budget =
        let rec go left =
          if left = 0 then false
          else
            match
              List.stable_sort
                (fun (a, _, _) (b, _, _) -> Float.compare a b)
                !pending
            with
            | (time, id, cancelled) :: _ when time <= until ->
              pending := List.filter (fun (_, i, _) -> i <> id) !pending;
              clock := time;
              if not !cancelled then expected := (id, time) :: !expected;
              go (left - 1)
            | _ -> true
        in
        let reached = go budget in
        if reached then clock := Float.max !clock until;
        reached
      in
      let step ok (a, b, c) =
        ok
        &&
        let now = Engine.Sim.now sim in
        let offset = decode_offset b c in
        let id = !next_id in
        let log () = fired := (id, Engine.Sim.now sim) :: !fired in
        match a mod 10 with
        | 0 | 1 | 2 ->
          incr next_id;
          Engine.Sim.schedule_at_ sim ~time:(now +. offset) log;
          pending := !pending @ [ (now +. offset, id, ref false) ];
          true
        | 3 | 4 | 5 ->
          incr next_id;
          let h = Engine.Sim.schedule_at sim ~time:(now +. offset) log in
          let cancelled = ref false in
          handles := (h, cancelled) :: !handles;
          pending := !pending @ [ (now +. offset, id, cancelled) ];
          true
        | 6 | 7 -> (
          match List.nth_opt !handles (c mod 8) with
          | Some (h, cancelled) ->
            Engine.Sim.cancel h;
            cancelled := true;
            not (Engine.Sim.is_pending h)
          | None -> true)
        | _ ->
          let until = if offset = infinity then now +. 1. else now +. offset in
          let budget = 1 + (c mod 5) in
          let reached = Engine.Sim.advance sim ~until ~budget in
          reached = model_advance until budget && Engine.Sim.now sim = !clock
      in
      let ok = List.fold_left step true schedule in
      ok
      && (Engine.Sim.run sim;
          ignore (model_advance infinity max_int);
          !fired = !expected
          && Engine.Sim.events_fired sim = List.length !expected))

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  let s = Engine.Stats.create () in
  List.iter (Engine.Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Engine.Stats.count s);
  check_float "mean" 2.5 (Engine.Stats.mean s);
  check_float "min" 1.0 (Engine.Stats.min s);
  check_float "max" 4.0 (Engine.Stats.max s);
  check_float "sum" 10.0 (Engine.Stats.sum s);
  check_close "variance" ~tolerance:1e-9 (5.0 /. 3.0) (Engine.Stats.variance s)

let test_stats_empty () =
  let s = Engine.Stats.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Engine.Stats.mean s));
  Alcotest.(check bool) "quantile nan" true
    (Float.is_nan (Engine.Stats.quantile s 0.5))

let test_stats_quantiles () =
  let s = Engine.Stats.create () in
  for i = 1 to 100 do
    Engine.Stats.add s (float_of_int i)
  done;
  check_float "p0 = min" 1.0 (Engine.Stats.quantile s 0.0);
  check_float "p100 = max" 100.0 (Engine.Stats.quantile s 1.0);
  check_close "median" ~tolerance:1e-9 50.5 (Engine.Stats.quantile s 0.5)

let test_stats_merge () =
  let a = Engine.Stats.create () in
  let b = Engine.Stats.create () in
  List.iter (Engine.Stats.add a) [ 1.0; 2.0 ];
  List.iter (Engine.Stats.add b) [ 3.0; 4.0 ];
  let m = Engine.Stats.merge a b in
  Alcotest.(check int) "merged count" 4 (Engine.Stats.count m);
  check_float "merged mean" 2.5 (Engine.Stats.mean m);
  check_float "merged quantile" 4.0 (Engine.Stats.quantile m 1.0)

let test_stats_merge_momentwise () =
  let a = Engine.Stats.create ~keep_samples:false () in
  let b = Engine.Stats.create ~keep_samples:false () in
  List.iter (Engine.Stats.add a) [ 1.0; 2.0; 3.0 ];
  List.iter (Engine.Stats.add b) [ 10.0; 20.0 ];
  let m = Engine.Stats.merge a b in
  Alcotest.(check int) "count" 5 (Engine.Stats.count m);
  check_close "mean" ~tolerance:1e-9 7.2 (Engine.Stats.mean m);
  (* Exact variance of {1,2,3,10,20}. *)
  let exact =
    let xs = [ 1.0; 2.0; 3.0; 10.0; 20.0 ] in
    let mu = 7.2 in
    List.fold_left (fun acc x -> acc +. ((x -. mu) ** 2.)) 0. xs /. 4.
  in
  check_close "variance" ~tolerance:1e-9 exact (Engine.Stats.variance m)

let test_stats_merge_momentwise_empty () =
  (* A fresh accumulator seeds min/max with NaN; merging an empty
     moment-only side must not let that NaN leak into the result. *)
  let a = Engine.Stats.create ~keep_samples:false () in
  let b = Engine.Stats.create ~keep_samples:false () in
  List.iter (Engine.Stats.add a) [ 2.0; 8.0 ];
  let m = Engine.Stats.merge a b in
  Alcotest.(check int) "count" 2 (Engine.Stats.count m);
  check_float "mean" 5.0 (Engine.Stats.mean m);
  check_float "min survives" 2.0 (Engine.Stats.min m);
  check_float "max survives" 8.0 (Engine.Stats.max m);
  let m' = Engine.Stats.merge b a in
  check_float "min (empty first)" 2.0 (Engine.Stats.min m');
  check_float "max (empty first)" 8.0 (Engine.Stats.max m');
  let e = Engine.Stats.merge b (Engine.Stats.create ~keep_samples:false ()) in
  Alcotest.(check int) "empty count" 0 (Engine.Stats.count e);
  Alcotest.(check bool) "empty mean nan" true
    (Float.is_nan (Engine.Stats.mean e))

let prop_stats_merge_moments_match_samples =
  (* The closed-form moment merge must agree with re-adding every sample. *)
  QCheck.Test.make ~name:"moment-only merge agrees with sample merge"
    ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 60) (float_bound_inclusive 1e3))
        (list_of_size (Gen.int_range 0 60) (float_bound_inclusive 1e3)))
    (fun (xs, ys) ->
      let fill keep vals =
        let s = Engine.Stats.create ~keep_samples:keep () in
        List.iter (Engine.Stats.add s) vals;
        s
      in
      let mm = Engine.Stats.merge (fill false xs) (fill false ys) in
      let sm = Engine.Stats.merge (fill true xs) (fill true ys) in
      let close a b =
        (Float.is_nan a && Float.is_nan b)
        || abs_float (a -. b) <= 1e-6 *. (1. +. abs_float b)
      in
      Engine.Stats.count mm = Engine.Stats.count sm
      && close (Engine.Stats.mean mm) (Engine.Stats.mean sm)
      && close (Engine.Stats.variance mm) (Engine.Stats.variance sm)
      && close (Engine.Stats.min mm) (Engine.Stats.min sm)
      && close (Engine.Stats.max mm) (Engine.Stats.max sm))

let prop_stats_mean_matches_naive =
  QCheck.Test.make ~name:"stats mean matches naive sum/n" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 200) (float_bound_inclusive 1e6))
    (fun xs ->
      let s = Engine.Stats.create () in
      List.iter (Engine.Stats.add s) xs;
      let naive = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      abs_float (Engine.Stats.mean s -. naive) <= 1e-6 *. (1. +. abs_float naive))

let prop_stats_minmax =
  QCheck.Test.make ~name:"stats min/max bound all samples" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 100) (float_bound_inclusive 1e3))
    (fun xs ->
      let s = Engine.Stats.create () in
      List.iter (Engine.Stats.add s) xs;
      List.for_all
        (fun x -> Engine.Stats.min s <= x && x <= Engine.Stats.max s)
        xs)

(* ------------------------------------------------------------------ *)
(* Streaming quantiles (the "p2_quantile" group)                      *)
(* ------------------------------------------------------------------ *)

(* The checks the P² estimator carried, kept under their names and run
   against the bucket histogram that replaced it (test_telemetry.ml has
   its accuracy, exact-merge and edge-value tests).  A quantile is now
   answered for any q in [0, 1], so "invalid q" rejects only q outside
   it, and merges are exact at any size. *)

module Hist = Engine.Telemetry.Histogram

let hist_of xs =
  let h = Hist.create () in
  List.iter (Hist.observe h) xs;
  h

(* A registry holding one histogram "h" fed [xs]: merges go through
   [Telemetry.merge_into]. *)
let registry_of xs =
  let tel = Engine.Telemetry.create () in
  List.iter (Hist.observe (Engine.Telemetry.histogram tel "h")) xs;
  tel

let test_p2_median_uniform () =
  let h = Hist.create () in
  let r = Engine.Rng.create ~seed:53 in
  for _ = 1 to 50_000 do
    Hist.observe h (Engine.Rng.float r)
  done;
  check_close "median ~ 0.5" ~tolerance:0.02 0.5 (Hist.quantile h 0.5)

let test_p2_p99_uniform () =
  let h = Hist.create () in
  let r = Engine.Rng.create ~seed:59 in
  for _ = 1 to 50_000 do
    Hist.observe h (Engine.Rng.float r)
  done;
  check_close "p99 ~ 0.99" ~tolerance:0.02 0.99 (Hist.quantile h 0.99)

let test_p2_empty () =
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Hist.quantile (Hist.create ()) 0.5))

let test_p2_invalid_q () =
  let h = hist_of [ 3.; 1.; 2. ] in
  let raises q = try ignore (Hist.quantile h q); false with Invalid_argument _ -> true in
  List.iter
    (fun q ->
      Alcotest.(check bool) (Printf.sprintf "q = %g rejected" q) true (raises q))
    [ -0.1; 1.1; neg_infinity; infinity; nan ];
  check_float "q = 0 is the min" 1. (Hist.quantile h 0.);
  check_float "q = 1 is the max" 3. (Hist.quantile h 1.)

let prop_p2_within_range =
  QCheck.Test.make ~name:"p2 estimate stays within sample range" ~count:100
    QCheck.(list_of_size (Gen.int_range 6 500) (float_bound_inclusive 1e3))
    (fun xs ->
      let h = hist_of xs in
      let lo = List.fold_left Float.min infinity xs in
      let hi = List.fold_left Float.max neg_infinity xs in
      List.for_all
        (fun q ->
          let e = Hist.quantile h q in
          lo <= e && e <= hi)
        [ 0.; 0.5; 0.9; 0.99; 1. ])

let test_p2_merge_small_exact () =
  let a = registry_of [ 1.; 9. ] in
  Engine.Telemetry.merge_into ~into:a (registry_of [ 5.; 3. ]);
  let merged = Engine.Telemetry.histogram a "h" in
  let direct = hist_of [ 1.; 9.; 5.; 3. ] in
  Alcotest.(check int) "counts add" 4 (Hist.count merged);
  List.iter
    (fun q ->
      check_float
        (Printf.sprintf "small merge exact at q = %g" q)
        (Hist.quantile direct q) (Hist.quantile merged q))
    [ 0.; 0.25; 0.5; 0.75; 1. ]

let test_p2_merge_deterministic () =
  let build () =
    let into = Engine.Telemetry.create () in
    for k = 0 to 2 do
      Engine.Telemetry.merge_into ~into
        (registry_of (List.init 100 (fun i -> float_of_int (i + (100 * k)))))
    done;
    Hist.quantile (Engine.Telemetry.histogram into "h") 0.9
  in
  check_float "same merge order, same estimate" (build ()) (build ());
  (* The merge must land inside the observed range and near the true p90
     of 0..299. *)
  let e = build () in
  Alcotest.(check bool) "estimate plausible" true (e > 200. && e < 300.)

let test_p2_merge_empty_and_mismatch () =
  let a = registry_of [ 4. ] in
  Engine.Telemetry.merge_into ~into:a (registry_of []);
  Engine.Telemetry.merge_into ~into:a (Engine.Telemetry.create ());
  let h = Engine.Telemetry.histogram a "h" in
  Alcotest.(check int) "empty src is a no-op" 1 (Hist.count h);
  check_float "estimate unchanged" 4. (Hist.quantile h 0.5);
  (* Every histogram has the same buckets, so sources that saw disjoint
     ranges merge without a parameter to match. *)
  let far = registry_of [ 1e-6; 2e-6 ] and near = registry_of [ 1e6 ] in
  Engine.Telemetry.merge_into ~into:far near;
  let h = Engine.Telemetry.histogram far "h" in
  Alcotest.(check int) "disjoint ranges merge" 3 (Hist.count h);
  check_float "min from one source" 1e-6 (Hist.quantile h 0.);
  check_float "max from the other" 1e6 (Hist.quantile h 1.)

(* ------------------------------------------------------------------ *)
(* Rng.derive                                                          *)
(* ------------------------------------------------------------------ *)

let test_rng_derive () =
  let s1 = Engine.Rng.derive ~seed:1 0 in
  Alcotest.(check int) "deterministic" s1 (Engine.Rng.derive ~seed:1 0);
  Alcotest.(check bool) "index-sensitive" true
    (s1 <> Engine.Rng.derive ~seed:1 1);
  Alcotest.(check bool) "seed-sensitive" true
    (s1 <> Engine.Rng.derive ~seed:2 0);
  List.iter
    (fun i ->
      Alcotest.(check bool) "non-negative" true
        (Engine.Rng.derive ~seed:12345 i >= 0))
    [ 0; 1; 7; 1000 ];
  Alcotest.(check bool) "negative index rejected" true
    (try
       ignore (Engine.Rng.derive ~seed:1 (-1));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Parallel                                                            *)
(* ------------------------------------------------------------------ *)

let test_parallel_default_jobs () =
  Alcotest.(check bool) "at least one worker" true
    (Engine.Parallel.default_jobs () >= 1)

let test_parallel_empty () =
  Alcotest.(check (list int)) "empty in, empty out (serial)" []
    (Engine.Parallel.map ~jobs:1 (fun x -> x) []);
  Alcotest.(check (list int)) "empty in, empty out (parallel)" []
    (Engine.Parallel.map ~jobs:4 (fun x -> x) [])

let test_parallel_ordering () =
  let items = List.init 50 Fun.id in
  let expected = List.map (fun x -> x * x) items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "order preserved at jobs=%d" jobs)
        expected
        (Engine.Parallel.map ~jobs (fun x -> x * x) items))
    [ 1; 2; 4; 8 ]

exception Boom of int

let test_parallel_try_map_errors () =
  let results =
    Engine.Parallel.try_map ~jobs:4
      (fun x -> if x = 2 then raise (Boom x) else x * 10)
      [ 0; 1; 2; 3 ]
  in
  let expect i = function
    | Ok v -> Alcotest.(check int) "ok value" (i * 10) v
    | Error (Boom n) when i = 2 -> Alcotest.(check int) "failing item" 2 n
    | Error e -> Alcotest.failf "unexpected error: %s" (Printexc.to_string e)
  in
  Alcotest.(check int) "arity" 4 (List.length results);
  List.iteri
    (fun i r ->
      if i = 2 then
        match r with
        | Error (Boom 2) -> ()
        | _ -> Alcotest.fail "index 2 should carry Boom"
      else expect i r)
    results

let test_parallel_map_reraises () =
  Alcotest.(check bool) "map re-raises the worker exception" true
    (try
       ignore (Engine.Parallel.map ~jobs:4 (fun x -> if x >= 3 then raise (Boom x) else x)
                 [ 0; 1; 2; 3; 4 ]);
       false
     with Boom 3 -> true)

(* ------------------------------------------------------------------ *)
(* Json                                                               *)
(* ------------------------------------------------------------------ *)

let json_eq = Alcotest.testable (fun ppf j -> Format.pp_print_string ppf (Engine.Json.to_string j)) ( = )

let parse_json s =
  match Engine.Json.of_string s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_atoms () =
  Alcotest.check json_eq "null" Engine.Json.Null (parse_json "null");
  Alcotest.check json_eq "true" (Engine.Json.Bool true) (parse_json "true");
  Alcotest.check json_eq "number" (Engine.Json.Number 42.) (parse_json "42");
  Alcotest.check json_eq "negative float" (Engine.Json.Number (-2.5)) (parse_json "-2.5");
  Alcotest.check json_eq "string" (Engine.Json.String "hi") (parse_json "\"hi\"")

let test_json_structures () =
  Alcotest.check json_eq "array"
    (Engine.Json.List [ Engine.Json.Number 1.; Engine.Json.Number 2. ])
    (parse_json "[1, 2]");
  Alcotest.check json_eq "object"
    (Engine.Json.Obj [ ("a", Engine.Json.Number 1.); ("b", Engine.Json.List []) ])
    (parse_json "{\"a\": 1, \"b\": []}");
  Alcotest.check json_eq "nested"
    (Engine.Json.Obj [ ("x", Engine.Json.Obj [ ("y", Engine.Json.Null) ]) ])
    (parse_json "{\"x\":{\"y\":null}}")

let test_json_escapes () =
  let original = Engine.Json.String "line\nquote\"back\\tab\t" in
  let round = parse_json (Engine.Json.to_string original) in
  Alcotest.check json_eq "escape round trip" original round;
  Alcotest.check json_eq "unicode escape" (Engine.Json.String "A") (parse_json "\"\\u0041\"")

let test_json_errors () =
  let is_error s = Result.is_error (Engine.Json.of_string s) in
  Alcotest.(check bool) "empty" true (is_error "");
  Alcotest.(check bool) "trailing" true (is_error "1 2");
  Alcotest.(check bool) "unterminated string" true (is_error "\"abc");
  Alcotest.(check bool) "bare word" true (is_error "nope");
  Alcotest.(check bool) "unclosed array" true (is_error "[1, 2");
  Alcotest.(check bool) "missing colon" true (is_error "{\"a\" 1}")

let test_json_accessors () =
  let v = parse_json "{\"a\": 3, \"b\": \"x\", \"c\": [true]}" in
  Alcotest.(check (option int)) "member int" (Some 3)
    (Option.bind (Engine.Json.member "a" v) Engine.Json.to_int);
  Alcotest.(check (option string)) "member str" (Some "x")
    (Option.bind (Engine.Json.member "b" v) Engine.Json.to_str);
  Alcotest.(check bool) "missing member" true (Engine.Json.member "z" v = None);
  Alcotest.(check (option int)) "non-integral int" None
    (Engine.Json.to_int (Engine.Json.Number 1.5))

let test_json_pretty_reparses () =
  let v =
    parse_json "{\"rows\":[{\"k\":1},{\"k\":2}],\"name\":\"qvisor\"}"
  in
  Alcotest.check json_eq "pretty form reparses"
    v (parse_json (Engine.Json.to_string ~pretty:true v))

let prop_json_round_trip =
  let gen =
    QCheck.Gen.(
      sized @@ fix (fun self size ->
          if size <= 0 then
            oneof
              [
                return Engine.Json.Null;
                map (fun b -> Engine.Json.Bool b) bool;
                map (fun n -> Engine.Json.Number (float_of_int n)) (int_range (-1000) 1000);
                map (fun s -> Engine.Json.String s) (string_size ~gen:printable (int_range 0 10));
              ]
          else
            oneof
              [
                map (fun l -> Engine.Json.List l) (list_size (int_range 0 4) (self (size / 2)));
                map
                  (fun kvs ->
                    (* Duplicate keys break assoc-based comparison. *)
                    let kvs =
                      List.mapi (fun i (k, v) -> (Printf.sprintf "%d%s" i k, v)) kvs
                    in
                    Engine.Json.Obj kvs)
                  (list_size (int_range 0 4)
                     (pair (string_size ~gen:printable (int_range 0 6)) (self (size / 2))));
              ]))
  in
  QCheck.Test.make ~name:"json to_string/of_string round-trips" ~count:300
    (QCheck.make gen) (fun v ->
      match Engine.Json.of_string (Engine.Json.to_string v) with
      | Ok v' -> v = v'
      | Error e -> QCheck.Test.fail_reportf "re-parse failed: %s" e)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "known answers" `Quick test_rng_known_answers;
          Alcotest.test_case "draws allocate nothing" `Quick
            test_rng_draws_allocate_nothing;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "float mean" `Quick test_rng_float_mean;
          Alcotest.test_case "int_range coverage" `Quick test_rng_int_range;
          Alcotest.test_case "int_range singleton" `Quick test_rng_int_range_singleton;
          Alcotest.test_case "int_range invalid" `Quick test_rng_int_range_invalid;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive;
          Alcotest.test_case "pair_distinct" `Quick test_rng_pair_distinct;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "empirical",
        [
          Alcotest.test_case "point mass" `Quick test_empirical_point_mass;
          Alcotest.test_case "uniform mean" `Quick test_empirical_mean_uniform;
          Alcotest.test_case "sample support" `Quick test_empirical_sample_range;
          Alcotest.test_case "invalid inputs" `Quick test_empirical_invalid;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "conversions" `Quick test_vec_conversions;
        ] );
      ( "timer_wheel",
        [
          Alcotest.test_case "ordering" `Quick test_tw_ordering;
          Alcotest.test_case "same-instant FIFO" `Quick test_tw_same_instant_fifo;
          Alcotest.test_case "far-future overflow" `Quick
            test_tw_far_future_overflow;
          Alcotest.test_case "non-finite times" `Quick test_tw_non_finite;
          qc prop_tw_matches_stable_sort;
        ] );
      ( "sim",
        [
          Alcotest.test_case "ordering" `Quick test_sim_ordering;
          Alcotest.test_case "cascade" `Quick test_sim_cascade;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "run until" `Quick test_sim_until;
          Alcotest.test_case "budgeted advance" `Quick test_sim_advance_budget;
          Alcotest.test_case "past rejected" `Quick test_sim_past_rejected;
          Alcotest.test_case "same-time FIFO" `Quick test_sim_same_time_fifo;
          Alcotest.test_case "handle-free same-time FIFO" `Quick
            test_sim_handle_free_fifo;
          Alcotest.test_case "cancel far-future" `Quick
            test_sim_cancel_far_future;
          Alcotest.test_case "non-finite times" `Quick test_sim_non_finite;
          Alcotest.test_case "fired thunks released" `Quick
            test_sim_releases_fired_thunks;
          qc prop_sim_matches_stable_sort;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "quantiles" `Quick test_stats_quantiles;
          Alcotest.test_case "merge" `Quick test_stats_merge;
          Alcotest.test_case "merge momentwise" `Quick test_stats_merge_momentwise;
          Alcotest.test_case "merge momentwise empty" `Quick
            test_stats_merge_momentwise_empty;
          qc prop_stats_merge_moments_match_samples;
          qc prop_stats_mean_matches_naive;
          qc prop_stats_minmax;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "default jobs" `Quick test_parallel_default_jobs;
          Alcotest.test_case "empty input" `Quick test_parallel_empty;
          Alcotest.test_case "ordering preserved" `Quick test_parallel_ordering;
          Alcotest.test_case "try_map errors" `Quick test_parallel_try_map_errors;
          Alcotest.test_case "map re-raises first" `Quick
            test_parallel_map_reraises;
          Alcotest.test_case "rng derive" `Quick test_rng_derive;
        ] );
      ( "json",
        [
          Alcotest.test_case "atoms" `Quick test_json_atoms;
          Alcotest.test_case "structures" `Quick test_json_structures;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "pretty reparses" `Quick test_json_pretty_reparses;
          qc prop_json_round_trip;
        ] );
      ( "p2_quantile",
        [
          Alcotest.test_case "median uniform" `Quick test_p2_median_uniform;
          Alcotest.test_case "p99 uniform" `Quick test_p2_p99_uniform;
          Alcotest.test_case "empty" `Quick test_p2_empty;
          Alcotest.test_case "invalid q" `Quick test_p2_invalid_q;
          Alcotest.test_case "merge small exact" `Quick test_p2_merge_small_exact;
          Alcotest.test_case "merge deterministic" `Quick
            test_p2_merge_deterministic;
          Alcotest.test_case "merge empty/mismatch" `Quick
            test_p2_merge_empty_and_mismatch;
          qc prop_p2_within_range;
        ] );
    ]
