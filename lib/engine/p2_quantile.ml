(* P² keeps five markers: minimum, the q/2, q and (1+q)/2 quantile
   estimates, and maximum.  Marker heights are adjusted with a piecewise
   parabolic (hence "P squared") interpolation as observations stream in.

   The state is flat so that [add] allocates nothing: heights and desired
   positions live in unboxed float arrays, and the marker positions,
   which start at 1..5 and only ever move by one, are ints.  The outer
   markers' desired positions are not stored (nothing reads them). *)

type t = {
  q : float;
  heights : float array; (* marker heights, 5 *)
  positions : int array; (* actual marker positions, 5 *)
  desired : float array; (* desired positions of markers 1..3 *)
  increments : float array; (* their per-observation increments *)
  mutable n : int;
}

let create ~q =
  if q <= 0. || q >= 1. then invalid_arg "P2_quantile.create: q outside (0,1)";
  {
    q;
    heights = Array.make 5 0.;
    positions = [| 1; 2; 3; 4; 5 |];
    desired = [| 1. +. (2. *. q); 1. +. (4. *. q); 3. +. (2. *. q) |];
    increments = [| q /. 2.; q; (1. +. q) /. 2. |];
    n = 0;
  }

let count t = t.n

(* Float operations below keep the textbook formula's order exactly, so
   estimates are bit-identical to the boxed-float formulation; positions
   are small ints, which convert to floats exactly.  Every index is a
   constant or a marker number in 0..4, hence the unchecked accesses. *)
let fget (a : float array) i = Array.unsafe_get a i
let fset (a : float array) i x = Array.unsafe_set a i x
let iget (a : int array) i = Array.unsafe_get a i
let iset (a : int array) i x = Array.unsafe_set a i x

let add t x =
  t.n <- t.n + 1;
  let h = t.heights in
  if t.n <= 5 then begin
    h.(t.n - 1) <- x;
    if t.n = 5 then Array.sort Float.compare h
  end
  else begin
    let p = t.positions in
    (* Find cell k such that heights.(k) <= x < heights.(k+1), clamping
       extremes. *)
    let k =
      if x < fget h 0 then begin
        fset h 0 x;
        0
      end
      else if x >= fget h 4 then begin
        fset h 4 x;
        3
      end
      else if x < fget h 1 then 0
      else if x < fget h 2 then 1
      else if x < fget h 3 then 2
      else 3
    in
    (* Markers k+1..4 move up one; straight-line, as the trip count is
       data-dependent. *)
    iset p 1 (iget p 1 + Bool.to_int (k < 1));
    iset p 2 (iget p 2 + Bool.to_int (k < 2));
    iset p 3 (iget p 3 + Bool.to_int (k < 3));
    iset p 4 (iget p 4 + 1);
    let desired = t.desired and inc = t.increments in
    fset desired 0 (fget desired 0 +. fget inc 0);
    fset desired 1 (fget desired 1 +. fget inc 1);
    fset desired 2 (fget desired 2 +. fget inc 2);
    (* Adjust the three interior markers if needed. *)
    for i = 1 to 3 do
      let pi = iget p i and pl = iget p (i - 1) and pr = iget p (i + 1) in
      let d = fget desired (i - 1) -. float_of_int pi in
      if (d >= 1. && pr - pi > 1) || (d <= -1. && pl - pi < -1) then begin
        let s = if d >= 0. then 1 else -1 in
        let d = float_of_int s in
        let hi = fget h i and hl = fget h (i - 1) and hr = fget h (i + 1) in
        (* Parabolic prediction, falling back to linear when it would
           leave the neighbours' interval. *)
        let candidate =
          hi
          +. d
             /. float_of_int (pr - pl)
             *. (((float_of_int (pi - pl) +. d) *. (hr -. hi)
                 /. float_of_int (pr - pi))
                +. ((float_of_int (pr - pi) -. d) *. (hi -. hl)
                   /. float_of_int (pi - pl)))
        in
        if hl < candidate && candidate < hr then fset h i candidate
        else
          fset h i
            (hi
            +. (d *. (fget h (i + s) -. hi)
               /. float_of_int (iget p (i + s) - pi)));
        iset p i (pi + s)
      end
    done
  end

let merge_into ~into src =
  if into.q <> src.q then invalid_arg "P2_quantile.merge_into: quantiles differ";
  if src.n = 0 then ()
  else if src.n <= 5 then
    (* Below five observations the heights are the raw samples. *)
    for i = 0 to src.n - 1 do
      add into src.heights.(i)
    done
  else begin
    (* Replay the five marker heights, each with the multiplicity implied
       by the gap between adjacent marker positions.  This is approximate
       (the sketch cannot be merged exactly) but deterministic: the same
       source state always replays the same stream. *)
    let prev = ref 0 in
    for i = 0 to 4 do
      let upto = src.positions.(i) in
      for _ = !prev + 1 to upto do
        add into src.heights.(i)
      done;
      prev := max !prev upto
    done
  end

let estimate t =
  if t.n = 0 then nan
  else if t.n >= 5 then t.heights.(2)
  else begin
    let a = Array.sub t.heights 0 t.n in
    Array.sort Float.compare a;
    let pos = t.q *. float_of_int (t.n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = int_of_float (Float.ceil pos) in
    if lo = hi then a.(lo)
    else begin
      let w = pos -. float_of_int lo in
      (a.(lo) *. (1. -. w)) +. (a.(hi) *. w)
    end
  end
