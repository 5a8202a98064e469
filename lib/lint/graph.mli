(** The deep half of the linter: an alias-aware, module-qualified reference
    graph over the whole tree, built from the Parsetree alone.  {!Effects}
    and {!Race} consume it for G001–G003; {!g004} (dead exports) lives here
    because it is a pure graph query.  See DESIGN.md §15 for the analysis
    lattice and the soundness caveats of the purely syntactic resolver. *)

(** Iterative Tarjan SCC over an int adjacency array.  Exposed separately so
    the QCheck property tests can drive it on random graphs. *)
module Scc : sig
  type result = { comp : int array; count : int }

  val compute : n:int -> succ:int array array -> result
  (** Components numbered in reverse topological order: every edge [u -> v]
      across components satisfies [comp u >= comp v], so walking components
      in increasing id visits callees before callers. *)

  val condensation_is_dag : n:int -> succ:int array array -> result -> bool
end

type mask = MNone | MSome of string list | MAll
(** Exceptions caught around a use site: nothing, a constructor list, or a
    catch-all handler. *)

type edge = {
  dst : string;  (** node id when [eresolved]; canonical external name else *)
  eresolved : bool;
  eapplied : bool;  (** syntactically applied (vs passed as a value) *)
  etask : bool;  (** lexically inside a pool-task closure argument *)
  emask : mask;
  eraw : string;  (** the identifier as written, pre-resolution *)
  eline : int;
  ecol : int;
}

type write = { wtarget : string; wline : int; wcol : int; wtask : bool }

type raise_site = { rexn : string; rline : int; rcol : int }
(** A raise surviving its lexical handlers; [rexn = "?"] when the
    constructor is not statically known. *)

type ndet_site = {
  skind : Rules_det.kind;
  sname : string;  (** resolved canonical name, e.g. ["Hashtbl.fold"] *)
  sraw : string;  (** as written, e.g. ["H.fold"] *)
  sline : int;
  scol : int;
}

type node = {
  id : string;  (** ["Serve.Server.run"], sub-nodes ["Serve.Server.run.handle"] *)
  nmodule : string;
  nfile : string;
  nline : int;
  ncol : int;
  ntop : bool;
  mutable nroots : string list;  (** [[@lint.root "..."]] kinds *)
  mutable nedges : edge list;
  mutable nwrites : write list;  (** writes to module-level mutable state *)
  mutable nraises : raise_site list;
  mutable nsyncs : (int * int) list;  (** Mutex.lock/protect positions *)
  mutable nndet : ndet_site list;
}

type mut_kind = Ref | Table | Container | Atomic | Lock

type global = { gid : string; gkind : mut_kind; gfile : string; gline : int }

type export = {
  xmodule : string;
  xname : string;
  xfile : string;
  xline : int;
  xcol : int;
}

type t = {
  nodes : node array;  (** sorted by id *)
  index : (string, int) Hashtbl.t;
  globals : global list;
  exports : export list;
  task_entries : string list;  (** node ids handed to the pool by name *)
  escaping : string list;  (** modules included / passed to functors / packed *)
  open_uses : (string * string) list;
  roots : (string * string) list;  (** (kind, node id) *)
}

val default_roots : (string * string) list
(** Built-in (kind, node-id-prefix) root patterns; kinds are ["determinism"]
    and ["handler"].  Code adds more with [[@lint.root "..."]]. *)

val pool_functions : string list

val is_io : string -> bool
val mask_catches : mask -> string -> bool

val module_of_path : libnames:(string * string) list -> string -> string
(** Canonical module id of a source path: [lib/serve/server.ml] is
    ["Serve.Server"], [lib/core/analysis.ml] is ["Fuzzy.Analysis"] (through
    dune's library name), [bin/repro.ml] is ["Repro"]. *)

val build :
  ?libnames:(string * string) list ->
  ?roots:(string * string) list ->
  Rule.source list ->
  t
(** Two passes over every parsed implementation: module table (which values
    and submodules each module declares, plus the module-level mutable-state
    inventory), then reference extraction under an environment of aliases,
    opens and locals.  Deterministic: nodes sorted by id. *)

val succ : t -> int array array
(** Resolved-edge adjacency, per-node sorted and deduplicated. *)

val node_index : t -> string -> int option

val bfs : t -> starts:int list -> int array
(** Parent array of a BFS over resolved edges from [starts] ([-1] for a
    start, [-2] for unreached); start order is sorted, so chains are
    deterministic. *)

val chain : t -> int array -> int -> string
(** [" -> "]-joined shortest path from a start to node [i], per {!bfs}. *)

val roots_of_kind : t -> string -> int list

val task_reachable : t -> int array
(** BFS parents from every pool-task entry (named entries plus targets of
    in-task edges): [>= -1] marks code that may run on pool domains. *)

val g004 : t -> Rule.finding list
(** Dead-export audit: [.mli] values of lib modules, including those of
    nested [module X : sig ... end] items, never referenced from outside
    their top-level module, unless the module escapes wholesale or the
    value is reachable through an [open]. *)

val module_graph : t -> (string * string) list

val to_json : ?effects:(string -> string list) -> t -> string
(** Function-level graph as a single JSON object (nodes, edges, globals,
    task entries, roots); [effects] supplies per-node transitive effect
    names once the fixpoint has run. *)

val to_dot : ?effects:(string -> string list) -> t -> string
(** Module-level condensation in Graphviz syntax, effect sets in labels. *)

val summary : t -> string
