type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float; (* sum of squared deviations, Welford *)
  mutable minv : float;
  mutable maxv : float;
  mutable sum : float;
  samples : float Vec.t option;
}

let create ?(keep_samples = true) () =
  {
    n = 0;
    mean = 0.;
    m2 = 0.;
    minv = nan;
    maxv = nan;
    sum = 0.;
    samples = (if keep_samples then Some (Vec.create ()) else None);
  }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  t.sum <- t.sum +. x;
  if t.n = 1 then begin
    t.minv <- x;
    t.maxv <- x
  end
  else begin
    if x < t.minv then t.minv <- x;
    if x > t.maxv then t.maxv <- x
  end;
  match t.samples with None -> () | Some d -> Vec.add_last d x

let count t = t.n

let mean t = if t.n = 0 then nan else t.mean

let variance t = if t.n < 2 then nan else t.m2 /. float_of_int (t.n - 1)

let min t = t.minv

let max t = t.maxv

let sum t = t.sum

let quantile t q =
  if q < 0. || q > 1. then invalid_arg "Stats.quantile: q outside [0,1]";
  match t.samples with
  | None -> invalid_arg "Stats.quantile: samples not kept"
  | Some d ->
    let n = Vec.length d in
    if n = 0 then nan
    else begin
      let a = Vec.to_array d in
      Array.sort Float.compare a;
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float (Float.floor pos) in
      let hi = int_of_float (Float.ceil pos) in
      if lo = hi then a.(lo)
      else begin
        let w = pos -. float_of_int lo in
        (a.(lo) *. (1. -. w)) +. (a.(hi) *. w)
      end
    end

let merge_into ~into:t src =
  match src.samples with
  | Some d -> Vec.iter (fun x -> add t x) d
  | None ->
    (* Without samples we can only merge moments. *)
    if src.n > 0 then begin
      let n0 = t.n in
      let n1 = src.n in
      let n = n0 + n1 in
      let delta = src.mean -. t.mean in
      let mean =
        ((t.mean *. float_of_int n0) +. (src.mean *. float_of_int n1))
        /. float_of_int n
      in
      let m2 =
        t.m2 +. src.m2
        +. (delta *. delta *. float_of_int n0 *. float_of_int n1
           /. float_of_int n)
      in
      t.n <- n;
      t.mean <- mean;
      t.m2 <- m2;
      t.sum <- t.sum +. src.sum;
      t.minv <-
        (if Float.is_nan t.minv then src.minv else Float.min t.minv src.minv);
      t.maxv <-
        (if Float.is_nan t.maxv then src.maxv else Float.max t.maxv src.maxv)
    end

let merge a b =
  let keep = a.samples <> None && b.samples <> None in
  let t = create ~keep_samples:keep () in
  merge_into ~into:t a;
  merge_into ~into:t b;
  t

let pp ppf t =
  if t.n = 0 then Format.fprintf ppf "n=0"
  else if t.samples <> None then
    Format.fprintf ppf "n=%d mean=%.6g p50=%.6g p99=%.6g max=%.6g" t.n (mean t)
      (quantile t 0.5) (quantile t 0.99) (max t)
  else
    Format.fprintf ppf "n=%d mean=%.6g min=%.6g max=%.6g" t.n (mean t) (min t)
      (max t)
