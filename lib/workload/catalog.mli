(** The full benchmark catalog: the 50 workloads of the paper's Table 2
    (26 SPEC CPU2K, 22 ODB-H queries, ODB-C, SjAS). *)

type kind = Spec | Odb_h of int | Odb_c | Sjas

type entry = {
  name : string;
  kind : kind;
  expected_quadrant : int;  (** designed quadrant, 1..4 *)
  build : seed:int -> scale:float -> Model.t;
      (** [scale] shrinks data sets for fast tests (1.0 = full). *)
}

val all : entry array
(** The 50 entries (ODB-C, SjAS, 26 SPEC, Q1..Q22), sorted by name.  The
    sorted order is an invariant consumers may rely on: zoo manifests and
    atlas rows derive their ordering from it. *)

val names : string array
(** [all]'s names, in the same (sorted) order. *)

val find : string -> entry
(** Raises [Not_found] on unknown names. *)

val find_opt : string -> entry option

