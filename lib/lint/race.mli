(** G002: writes to module-level mutable state that can execute on pool
    domains with no dominating lock.  Inventory comes from {!Graph.build};
    the sync check is a lexical-dominance heuristic (DESIGN.md §15). *)

val g002 : Graph.t -> Rule.finding list
