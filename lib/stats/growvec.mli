(** A growable unboxed int vector, for collecting an unknown number of
    ints without a list. *)

module Int : sig
  type t

  val create : ?capacity:int -> unit -> t
  val push : t -> int -> unit
  val length : t -> int
  val clear : t -> unit
  (** Reset length to zero; capacity is retained. *)

  val to_array : t -> int array
end
