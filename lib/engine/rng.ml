(* Splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators" (OOPSLA 2014).  State is a single 64-bit counter advanced by
   the golden gamma; output is a finalizing hash of the state.

   The counter lives in an 8-byte buffer read and written with the unboxed
   [Bytes] int64 primitives, and [mix] and [bits64] inline into every
   draw, so [int], [int_range] and [bool] allocate nothing (a mutable
   [int64] field would box on every store).  [float] inlines into its
   callers too, so its result is not boxed either where it is compared or
   used at once. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 state;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

let derive ~seed index =
  if index < 0 then invalid_arg "Rng.derive: negative index";
  let open Int64 in
  let z =
    mix (add (mix (of_int seed)) (mul (of_int (index + 1)) golden_gamma))
  in
  to_int (shift_right_logical z 2)

let[@inline] bits64 t =
  let state = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 state;
  mix state

let split t = of_state (mix (bits64 t))

let copy = Bytes.copy

let[@inline] float t =
  (* 53 high bits -> uniform in [0,1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let float_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.float_range: lo > hi";
  lo +. ((hi -. lo) *. float t)

let int t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_range: lo > hi";
  let span = hi - lo + 1 in
  lo + (int t mod span)

let bool t = Int64.logand (bits64 t) 1L = 1L

let exponential t ~mean =
  if mean <= 0. then invalid_arg "Rng.exponential: mean <= 0";
  let u = 1.0 -. float t in
  -.mean *. log u

let choice t a =
  if Array.length a = 0 then invalid_arg "Rng.choice: empty array";
  a.(int_range t ~lo:0 ~hi:(Array.length a - 1))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int_range t ~lo:0 ~hi:i in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pair_distinct t ~n =
  if n < 2 then invalid_arg "Rng.pair_distinct: n < 2";
  let a = int_range t ~lo:0 ~hi:(n - 1) in
  let b = int_range t ~lo:0 ~hi:(n - 2) in
  (a, if b >= a then b + 1 else b)

module Empirical = struct
  type dist = { values : float array; cdf : float array; mean : float }

  let of_points points =
    match points with
    | [] -> invalid_arg "Empirical.of_points: empty"
    | _ ->
      let values = Array.of_list (List.map fst points) in
      let cdf = Array.of_list (List.map snd points) in
      let n = Array.length values in
      for i = 1 to n - 1 do
        if values.(i) <= values.(i - 1) then
          invalid_arg "Empirical.of_points: values not strictly increasing";
        if cdf.(i) < cdf.(i - 1) then
          invalid_arg "Empirical.of_points: cdf decreasing"
      done;
      if abs_float (cdf.(n - 1) -. 1.0) > 1e-9 then
        invalid_arg "Empirical.of_points: cdf must end at 1.0";
      if cdf.(0) < 0. then invalid_arg "Empirical.of_points: negative cdf";
      (* Point mass of cdf.(0) at values.(0); linear segments after. *)
      let mean = ref (cdf.(0) *. values.(0)) in
      for i = 1 to n - 1 do
        let p = cdf.(i) -. cdf.(i - 1) in
        mean := !mean +. (p *. 0.5 *. (values.(i) +. values.(i - 1)))
      done;
      { values; cdf; mean = !mean }

  let sample d t =
    let u = float t in
    let n = Array.length d.cdf in
    if u <= d.cdf.(0) then d.values.(0)
    else begin
      (* Binary search for the first index with cdf >= u. *)
      let lo = ref 0 and hi = ref (n - 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if d.cdf.(mid) < u then lo := mid else hi := mid
      done;
      let i = !hi in
      let c0 = d.cdf.(i - 1) and c1 = d.cdf.(i) in
      let v0 = d.values.(i - 1) and v1 = d.values.(i) in
      if c1 -. c0 <= 0. then v1
      else v0 +. ((v1 -. v0) *. ((u -. c0) /. (c1 -. c0)))
    end

  let mean d = d.mean
end
