(** Growable unboxed vectors used by trace sinks on the hot path of the
    workload simulators. *)

module Int : sig
  type t

  val create : ?capacity:int -> unit -> t
  val push : t -> int -> unit
  val length : t -> int
  val clear : t -> unit
  (** Reset length to zero; capacity is retained. *)

  val to_array : t -> int array

  val data : t -> int array
  (** The backing array, without copying: only its first [length t]
      elements are the vector's.  A later [push] overwrites it, or
      replaces it when the vector grows. *)
end

module Bool : sig
  type t

  val create : ?capacity:int -> unit -> t
  val push : t -> bool -> unit
  val clear : t -> unit
  val data : t -> bool array
  (** As {!Int.data}. *)
end
