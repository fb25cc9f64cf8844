(** Rank transformation functions (§3.2).

    The synthesizer expresses the joint scheduling function as per-tenant
    transformations applied to packet ranks at line rate.  Two primitives
    are supported, as in the paper: {e rank-shift} (prioritize one tenant
    over another by displacing its rank band) and {e rank-normalization}
    (bound a rank function's range and quantize it so different tenants
    compare fairly).  Transformations compose. *)

type t =
  | Identity
  | Shift of int  (** add a constant to the rank *)
  | Normalize of {
      src_lo : int;
      src_hi : int;
      dst_lo : int;
      dst_hi : int;
      levels : int;
          (** number of discrete output levels spread evenly across
              [dst_lo..dst_hi]; ranks outside the source range clamp *)
    }
  | Compose of t * t  (** apply the first, then the second *)

val normalize :
  src:int * int -> dst:int * int -> ?levels:int -> unit -> t
(** Affine map of the source interval onto the destination interval with
    clamping, quantized to [levels] (default: the full destination width).
    @raise Invalid_argument on empty intervals or [levels <= 0]. *)

val compose : t -> t -> t
(** [compose f g] applies [f] first. *)

val apply : t -> int -> int
(** Transform one rank. *)

val apply_exact : t -> int -> float
(** The idealized real-valued transformation: the same clamped affine
    map, but without level quantization or integer rounding.
    [|float (apply t r) -. apply_exact t r|] is the rank-approximation
    error the quantized data path introduces for rank [r] — the
    distribution telemetry tracks live. *)

val range : t -> int * int -> int * int
(** Image interval of an input rank interval (interval analysis used by
    the static analyzer).  Both bounds inclusive. *)

val pp : Format.formatter -> t -> unit
