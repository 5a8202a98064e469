(* D001-D004: the rules that carry the repo's determinism guarantee
   (results bit-identical across --jobs and across runs).

   The D001-D003 policy lives here once: which names are random, clock and
   hash-order primitives, where each rule looks, and the one sanctioned
   file per kind.  The D-rules below, G001 and the effect barrier in the
   deep pass are all built from it. *)

type kind = Nrandom | Nclock | Nhash

let wall_clock = [ "Unix.gettimeofday"; "Unix.time"; "Sys.time" ]

let hashtbl_traversals =
  [
    "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.to_seq"; "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values";
  ]

let ndet_of_name name =
  if String.starts_with ~prefix:"Random." name then Some Nrandom
  else if List.mem name wall_clock then Some Nclock
  else if List.mem name hashtbl_traversals then Some Nhash
  else None

(* The blessed containment sites: each kind is allowed in exactly one
   file, whose whole point is to discipline it. *)
let sanctum = function
  | Nrandom -> "lib/stats/rng.ml"
  | Nclock -> "lib/serve/clock.ml"
  | Nhash -> "lib/stats/det.ml"

let in_scope kind path =
  path <> sanctum kind
  &&
  match kind with
  | Nrandom -> true
  | Nclock -> not (Rule.under "bench" path)
  | Nhash -> Rule.in_lib path

let ndet_rule kind ~id ~title ~doc ~message =
  Syntax.ident_rule ~id ~title ~doc ~scope:(in_scope kind)
    ~hit:(fun name ->
      if ndet_of_name name = Some kind then Some (name ^ ": " ^ message) else None)

let d001 =
  ndet_rule Nrandom ~id:"D001" ~title:"Random.* outside lib/stats/rng.ml"
    ~doc:
      "All randomness must flow through the splittable Stats.Rng streams, which \
       are pure functions of (seed, label).  Stdlib Random is a single global \
       mutable state: any call order change (parallel scheduling, refactors) \
       silently reshuffles every downstream draw."
    ~message:"use a Stats.Rng stream (split_label) instead of global Random"

let d002 =
  ndet_rule Nclock ~id:"D002" ~title:"wall-clock outside bench/"
    ~doc:
      "Analysis results must be pure functions of (config, seed).  Wall-clock \
       and CPU-time reads make output depend on when and how fast the run \
       executed; only bench/ may time things (for reporting), plus the one \
       blessed control-plane site lib/serve/clock.ml: the server's deadline \
       timers decide only WHETHER a queued request is answered (Timeout vs \
       run-to-completion), never feed a number into analytic output."
    ~message:
      ("wall-clock/CPU time is only allowed under bench/ or in " ^ sanctum Nclock)

let d003 =
  ndet_rule Nhash ~id:"D003" ~title:"unsorted Hashtbl traversal in lib/"
    ~doc:
      "Hashtbl.iter/fold/to_seq enumerate bindings in hash-bucket order — an \
       implementation detail that changes across OCaml versions and hash \
       functions.  Anything order-sensitive fed from such a traversal (output \
       rows, float summation, RNG consumption, feature interning) is only \
       deterministic by luck.  Traverse via Stats.Det.hashtbl_bindings, which \
       sorts bindings by key first."
    ~message:"bucket-order traversal; sort bindings first (Stats.Det.hashtbl_bindings)"

let d004 =
  Syntax.ident_rule ~id:"D004" ~title:"Domain.spawn outside lib/parallel"
    ~doc:
      "All parallelism goes through Parallel.Pool, whose deterministic-merge \
       contract (per-task partial results, fixed combine order) is what makes \
       --jobs invisible in the output.  A stray Domain.spawn bypasses that \
       contract."
    ~scope:(fun path -> not (Rule.under "lib/parallel" path))
    ~hit:(fun name ->
      if name = "Domain.spawn" then
        Some "Domain.spawn: submit work to Parallel.Pool instead"
      else None)

let all = [ d001; d002; d003; d004 ]
