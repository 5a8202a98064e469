(** Heap tables: contiguous arrays of fixed-size rows in the simulated
    address space. *)

type t = private {
  name : string;
  rows : int;
  row_bytes : int;
  base : int;
  page_bytes : int;
}

val create : Addr_space.t -> name:string -> rows:int -> row_bytes:int -> t
val addr_of_row : t -> int -> int
