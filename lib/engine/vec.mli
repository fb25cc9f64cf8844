(** Growable arrays (a minimal stand-in for OCaml 5.2's [Dynarray],
    which is not available on the 5.1 toolchain used here). *)

type 'a t

val create : unit -> 'a t

val length : 'a t -> int

val add_last : 'a t -> 'a -> unit

val get : 'a t -> int -> 'a
(** @raise Invalid_argument on out-of-bounds access. *)

val iter : ('a -> unit) -> 'a t -> unit

val to_array : 'a t -> 'a array
