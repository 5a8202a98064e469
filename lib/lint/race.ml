(* G002: statically detectable data races.

   The inventory side lives in Graph.build: every top-level `let x = ref
   ...` / `Hashtbl.create` / buffer/array binding is a module-level mutable
   global (Atomic.make is blessed, Mutex/Condition are locks, not data).
   Here we ask which writes to that state can execute on pool domains:

   - writes lexically inside a pool-task closure argument ([etask]/[wtask]),
   - writes in any node reachable (over resolved edges) from a task entry —
     a function handed to Parallel.Pool.map/submit by name.

   Such a write is flagged unless a Mutex.lock/Mutex.protect call appears
   lexically before it in the same top-level binding — a dominance
   heuristic, not a proof: a lock in a dead branch fools it, and a lock
   taken by a callee is invisible.  Both directions are documented in
   DESIGN.md §15; Atomic state is exempt by construction. *)

let g002_rule =
  {
    Rule.id = "G002";
    title = "unsynchronized shared mutation in task context";
    doc =
      "Parallel.Pool's determinism contract is per-task partial results \
       merged in fixed order; a task that writes module-level mutable state \
       without a mutex (or Atomic) reintroduces scheduling order into the \
       output — and is a data race under OCaml 5's memory model.  G002 \
       inventories module-level mutable bindings and flags every write \
       reachable from pool-task context that no lock lexically dominates.";
    check = (fun _ -> []);
  }

(* The top-level binding that lexically contains a (possibly sub-) node. *)
let top_of (g : Graph.t) i =
  let n = g.Graph.nodes.(i) in
  if n.Graph.ntop then n
  else
    let rec strip id =
      match String.rindex_opt id '.' with
      | None -> n
      | Some k -> (
          let pid = String.sub id 0 k in
          match Graph.node_index g pid with
          | Some j when g.Graph.nodes.(j).Graph.ntop -> g.Graph.nodes.(j)
          | Some j -> strip g.Graph.nodes.(j).Graph.id
          | None -> strip pid)
    in
    strip n.Graph.id

let dominated_by_sync (top : Graph.node) (w : Graph.write) =
  List.exists
    (fun (l, c) -> l < w.Graph.wline || (l = w.Graph.wline && c <= w.Graph.wcol))
    top.Graph.nsyncs

let g002 (g : Graph.t) =
  let task_parent = Graph.task_reachable g in
  let findings = ref [] in
  Array.iteri
    (fun i (node : Graph.node) ->
      let task_reached = task_parent.(i) >= -1 in
      List.iter
        (fun (w : Graph.write) ->
          let in_task_context = w.Graph.wtask || task_reached in
          if in_task_context && not (dominated_by_sync (top_of g i) w) then begin
            let via =
              if w.Graph.wtask then "inside a pool-task closure"
              else
                Printf.sprintf "reachable from a pool task via %s"
                  (Graph.chain g task_parent i)
            in
            findings :=
              Rule.finding g002_rule ~file:node.Graph.nfile ~line:w.Graph.wline
                ~col:w.Graph.wcol
                (Printf.sprintf
                   "write to module-level mutable %s %s with no dominating \
                    Mutex.lock/protect; guard it or make it Atomic"
                   w.Graph.wtarget via)
              :: !findings
          end)
        node.Graph.nwrites)
    g.Graph.nodes;
  List.sort_uniq Rule.compare_finding !findings
