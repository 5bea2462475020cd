(** Switch identifiers.

    Switches are numbered densely from 0; tasks and allocators refer to them
    through the set and map below.  A switch set is one immediate [int]
    bitmask, so set algebra on the divide-and-merge hot path never
    allocates; that caps a network at {!max_switches} switches. *)

type t = int

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val max_switches : int
(** [Sys.int_size - 1] (62 on 64-bit hosts): the most switches a
    {!Set.t} can hold.  Valid ids are \[0, max_switches). *)

(** Sets of switches: the part of [Set.Make (Int)]'s interface that the
    repository uses, with the same ascending iteration order. *)
module Set : sig
  type elt = t
  type t = private int

  val empty : t
  val is_empty : t -> bool
  val mem : elt -> t -> bool

  val add : elt -> t -> t
  (** @raise Invalid_argument if the id is outside \[0, max_switches). *)

  val singleton : elt -> t
  (** @raise Invalid_argument as {!add}. *)

  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t
  val equal : t -> t -> bool
  val cardinal : t -> int
  val iter : (elt -> unit) -> t -> unit
  val fold : (elt -> 'a -> 'a) -> t -> 'a -> 'a
  val for_all : (elt -> bool) -> t -> bool
  val exists : (elt -> bool) -> t -> bool
  val filter : (elt -> bool) -> t -> t

  val elements : t -> elt list
  (** Ascending. *)

  val of_list : elt list -> t
  (** @raise Invalid_argument as {!add}. *)

  val of_bits : int -> t
  (** The inverse of [(s :> int)], for sets kept in flat int buffers: bit
      [i] of the mask is switch [i].
      @raise Invalid_argument on a negative mask. *)
end

module Map : Map.S with type key = t

val set_of_list : t list -> Set.t
val pp_set : Format.formatter -> Set.t -> unit
