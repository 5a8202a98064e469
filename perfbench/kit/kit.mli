(** Helpers of the benchmark runner that carry no knowledge of the
    program under test: order statistics, an in-memory span recorder with
    self-time attribution, operation/failure tallies and the one-line
    JSON result.  Kept apart from [perfbench/main.ml] so they can be
    unit-tested without running a workload. *)

(** {1 Order statistics} *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in \[0, 100\]: linear interpolation between
    the closest ranks of the sorted sample (the "R-7" rule, as numpy's
    default).  [xs] is not modified.
    @raise Invalid_argument on an empty sample or [p] outside \[0, 100\]. *)

val median : float array -> float

(** {1 Spans} *)

module Span : sig
  type t = {
    id : int;  (** unique within a recorder, in start order *)
    name : string;
    parent : int;  (** id of the enclosing span; [-1] for a root *)
    op : int;  (** operation id shared by every span of one operation *)
    start : float;  (** seconds *)
    stop : float;
  }

  type recorder

  val recorder : clock:(unit -> float) -> recorder

  val with_span : recorder -> string -> (unit -> 'a) -> 'a
  (** Run the thunk inside a span named [name], child of the innermost
      open span.  The span is closed (and kept) also when the thunk
      raises. *)

  val op : recorder -> string -> (unit -> 'a) -> 'a
  (** [op r name f]: a root span with a fresh operation id; every span
      opened inside [f] carries that id. *)

  val current_op : recorder -> int option
  (** The operation id of the innermost open span, if any. *)

  val spans : recorder -> t list
  (** Closed spans, in start order. *)

  val self_times : t list -> (t * float) list
  (** Each span with its self time: its duration minus the part of its
      interval that its direct children cover (overlapping children are
      counted once). *)

  val self_by_op : t list -> (int * (string * float) list) list
  (** Per operation id (ascending): total self time per span name, sorted
      by name. *)

  val roots : t list -> t list
  (** Root spans (one per operation), in start order. *)

  val to_tsv : t list -> string
  (** One line per span: id, parent, op, name, start and stop relative to
      the first span, in seconds. *)
end

(** {1 Operation tallies} *)

module Tally : sig
  type t

  val create : unit -> t

  val attempt : t -> (unit -> bool) -> unit
  (** Count one attempted operation.  It fails when the check returns
      [false] or anything in it raises; the exception is swallowed after
      being reported on stderr. *)

  val attempted : t -> int
  val failed : t -> int
end

(** {1 Result line} *)

type metric = { name : string; value : float; unit_ : string }

val result_json : attempted:int -> failed:int -> metric list -> string
(** [{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}]
    on one line; [correct] is [failed = 0].  Values are printed with
    17 significant digits.
    @raise Invalid_argument if a value is not finite. *)
