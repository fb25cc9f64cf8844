type t =
  | Identity
  | Shift of int
  | Normalize of {
      src_lo : int;
      src_hi : int;
      dst_lo : int;
      dst_hi : int;
      levels : int;
    }
  | Compose of t * t

let normalize ~src:(src_lo, src_hi) ~dst:(dst_lo, dst_hi) ?levels () =
  if src_lo > src_hi then invalid_arg "Transform.normalize: empty source range";
  if dst_lo > dst_hi then invalid_arg "Transform.normalize: empty destination";
  let levels =
    match levels with
    | Some l when l <= 0 -> invalid_arg "Transform.normalize: levels <= 0"
    | Some l -> l
    | None -> dst_hi - dst_lo + 1
  in
  Normalize { src_lo; src_hi; dst_lo; dst_hi; levels }

let compose f g = match (f, g) with
  | Identity, h | h, Identity -> h
  | _ -> Compose (f, g)

(* Int-specialized clamp: polymorphic [min]/[max] cost a structural-compare
   call per packet on this path. *)
let[@inline] iclamp lo hi (r : int) = if r < lo then lo else if r > hi then hi else r

let level_of ~src_lo ~src_hi ~levels r =
  let r = iclamp src_lo src_hi r in
  let width = src_hi - src_lo + 1 in
  let l = (r - src_lo) * levels / width in
  if l > levels - 1 then levels - 1 else l

let rec apply t r =
  match t with
  | Identity -> r
  | Shift k -> r + k
  | Normalize { src_lo; src_hi; dst_lo; dst_hi; levels } ->
    let level = level_of ~src_lo ~src_hi ~levels r in
    if levels = 1 then dst_lo
    else dst_lo + (level * (dst_hi - dst_lo) / (levels - 1))
  | Compose (f, g) -> apply g (apply f r)

(* The idealized (real-valued, unquantized) counterpart of [apply]: the
   same clamp-and-scale geometry, but with exact linear interpolation in
   place of level quantization and integer division.  The gap between the
   two is the rank-approximation error telemetry reports. *)
let rec exactf t x =
  match t with
  | Identity -> x
  | Shift k -> x +. float_of_int k
  | Normalize { src_lo; src_hi; dst_lo; dst_hi; levels = _ } ->
    let x =
      Float.max (float_of_int src_lo) (Float.min (float_of_int src_hi) x)
    in
    if src_hi = src_lo then float_of_int dst_lo
    else
      float_of_int dst_lo
      +. (x -. float_of_int src_lo)
         *. float_of_int (dst_hi - dst_lo)
         /. float_of_int (src_hi - src_lo)
  | Compose (f, g) -> exactf g (exactf f x)

let apply_exact t r = exactf t (float_of_int r)

let rec range t (lo, hi) =
  if lo > hi then invalid_arg "Transform.range: empty interval";
  match t with
  | Identity -> (lo, hi)
  | Shift k -> (lo + k, hi + k)
  | Normalize _ ->
    (* Monotone, so the image interval is the image of the endpoints. *)
    (apply t lo, apply t hi)
  | Compose (f, g) -> range g (range f (lo, hi))

let rec pp ppf = function
  | Identity -> Format.pp_print_string ppf "id"
  | Shift k -> Format.fprintf ppf "shift(%+d)" k
  | Normalize { src_lo; src_hi; dst_lo; dst_hi; levels } ->
    Format.fprintf ppf "normalize([%d,%d]->[%d,%d]/%d)" src_lo src_hi dst_lo
      dst_hi levels
  | Compose (f, g) -> Format.fprintf ppf "%a;%a" pp f pp g
