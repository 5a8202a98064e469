(* Fixpoint effect inference over the reference graph, and the two rules it
   pays for:

   G001 — transitive/aliased nondeterminism: a Random/wall-clock/Hashtbl
   traversal primitive reached through a module alias, an open, or a call
   chain from a determinism-critical root.  D001–D003 are the fast
   syntactic path; G001 closes their blind spots (`module H = Hashtbl`).

   G003 — exception escape: a raise that survives every handler between its
   site and a `handler` root must map into the typed protocol error set;
   anything else tears down a connection the protocol promised to answer.

   Both fixpoints run over Tarjan components in reverse topological order
   (callees first), iterating inside a component until stable — the lattice
   is finite (a 7-bit effect set; raise sets bounded by the constructors in
   the tree), so termination is structural.  `infer` is pure: the QCheck
   suite checks monotonicity and idempotence on generated graphs. *)

let bit_random = 1
let bit_clock = 2
let bit_hash = 4
let bit_io = 8
let bit_mutation = 16
let bit_spawn = 32
let bit_raises = 64

let bit_of_ndet = function
  | Rules_det.Nrandom -> bit_random
  | Rules_det.Nclock -> bit_clock
  | Rules_det.Nhash -> bit_hash

let effect_names bits =
  List.filter_map
    (fun (b, n) -> if bits land b <> 0 then Some n else None)
    [
      (bit_random, "random"); (bit_clock, "clock"); (bit_hash, "hashtbl-order");
      (bit_io, "io"); (bit_mutation, "mutation"); (bit_spawn, "spawn");
      (bit_raises, "raises");
    ]

(* Effects a node exhibits on its own, before propagation. *)
let base_effects (n : Graph.node) =
  let bits = ref 0 in
  List.iter (fun (s : Graph.ndet_site) -> bits := !bits lor bit_of_ndet s.Graph.skind) n.Graph.nndet;
  List.iter
    (fun (e : Graph.edge) ->
      if not e.Graph.eresolved then begin
        if Graph.is_io e.Graph.dst then bits := !bits lor bit_io;
        if e.Graph.dst = "Domain.spawn" then bits := !bits lor bit_spawn
      end)
    n.Graph.nedges;
  if n.Graph.nwrites <> [] then bits := !bits lor bit_mutation;
  if n.Graph.nraises <> [] then bits := !bits lor bit_raises;
  !bits

(* Calls into a sanctum module do not propagate the effect it contains:
   [Rules_det.sanctum Nrandom] is *supposed* to be the one place randomness
   lives. *)
let barrier_mask (g : Graph.t) j =
  let file = g.Graph.nodes.(j).Graph.nfile in
  List.fold_left
    (fun acc kind ->
      if Rules_det.sanctum kind = file then acc land lnot (bit_of_ndet kind) else acc)
    (lnot 0) Rules_det.[ Nrandom; Nclock; Nhash ]

(* One propagation sweep: eff'(u) = base(u) | union over resolved edges
   u->v of (eff(v) & barrier(v)).  Pure; returns a fresh array. *)
let sweep (g : Graph.t) ~succ eff =
  Array.mapi
    (fun i (n : Graph.node) ->
      let acc = ref (base_effects n lor eff.(i)) in
      Array.iter (fun j -> acc := !acc lor (eff.(j) land barrier_mask g j)) succ.(i);
      !acc)
    g.Graph.nodes

let infer (g : Graph.t) =
  let succ = Graph.succ g in
  let n = Array.length g.Graph.nodes in
  let scc = Graph.Scc.compute ~n ~succ in
  let eff = Array.make n 0 in
  Array.iteri (fun i node -> eff.(i) <- base_effects node) g.Graph.nodes;
  (* Components in increasing id = callees first; iterate each component to
     its local fixpoint before moving on. *)
  let members = Array.make scc.Graph.Scc.count [] in
  for i = n - 1 downto 0 do
    let c = scc.Graph.Scc.comp.(i) in
    members.(c) <- i :: members.(c)
  done;
  for c = 0 to scc.Graph.Scc.count - 1 do
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun i ->
          let acc = ref eff.(i) in
          Array.iter (fun j -> acc := !acc lor (eff.(j) land barrier_mask g j)) succ.(i);
          if !acc <> eff.(i) then begin
            eff.(i) <- !acc;
            changed := true
          end)
        members.(c)
    done
  done;
  eff

(* ------------------------------------------------------------------ *)
(* Raise-set fixpoint: which exception constructors can escape each node.
   Only applied edges propagate (a closure passed as a value raises at its
   eventual call site, which we cannot see — documented under-approximation);
   each edge's lexical mask filters the callee's set.  Every constructor is
   carried with its origin site so findings point at the raise, not the
   root. *)

type origin = { ofile : string; oline : int; ocol : int }

let raise_sets (g : Graph.t) =
  let n = Array.length g.Graph.nodes in
  let sets : (string * origin) list array = Array.make n [] in
  Array.iteri
    (fun i (node : Graph.node) ->
      sets.(i) <-
        List.map
          (fun (r : Graph.raise_site) ->
            ( r.Graph.rexn,
              { ofile = node.Graph.nfile; oline = r.Graph.rline; ocol = r.Graph.rcol } ))
          node.Graph.nraises)
    g.Graph.nodes;
  let merge into xs =
    List.fold_left
      (fun acc (exn, o) ->
        match List.assoc_opt exn acc with
        | Some o0 when compare o0 o <= 0 -> acc
        | Some _ -> (exn, o) :: List.remove_assoc exn acc
        | None -> (exn, o) :: acc)
      into xs
    |> List.sort compare
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i (node : Graph.node) ->
        let acc = ref sets.(i) in
        List.iter
          (fun (e : Graph.edge) ->
            if e.Graph.eresolved && e.Graph.eapplied then
              match Graph.node_index g e.Graph.dst with
              | Some j ->
                  let filtered =
                    List.filter
                      (fun (exn, _) -> not (Graph.mask_catches e.Graph.emask exn))
                      sets.(j)
                  in
                  acc := merge !acc filtered
              | None -> ())
          node.Graph.nedges;
        if !acc <> sets.(i) then begin
          sets.(i) <- !acc;
          changed := true
        end)
      g.Graph.nodes
  done;
  sets

(* ------------------------------------------------------------------ *)
(* G001. *)

let g001_rule =
  {
    Rule.id = "G001";
    title = "aliased/transitive nondeterminism";
    doc =
      "D001-D003 match primitive names syntactically, which `module H = \
       Hashtbl` or a helper one call away defeats.  G001 resolves every \
       identifier through the module environment and the call graph, so a \
       nondeterminism primitive reached under any other name — or from a \
       determinism-critical root through any chain — is still flagged.  The \
       D-rules remain the fast path; G001 is the backstop that makes their \
       syntactic approximation safe.";
    check = (fun _ -> []);
  }

let g001 (g : Graph.t) =
  let det_roots = Graph.roots_of_kind g "determinism" in
  let parent = Graph.bfs g ~starts:det_roots in
  let findings = ref [] in
  Array.iteri
    (fun i (node : Graph.node) ->
      let file = node.Graph.nfile in
      let reachable = parent.(i) >= -1 in
      List.iter
        (fun (site : Graph.ndet_site) ->
          let kind = site.Graph.skind in
          let in_scope = Rules_det.in_scope kind file in
          (* Would the D-rule have fired on the *raw* identifier here?  Then
             the fast path already reports it and G001 stays silent. *)
          let d_reports = in_scope && Rules_det.ndet_of_name site.Graph.sraw = Some kind in
          if file = Rules_det.sanctum kind || d_reports then ()
          else if in_scope || reachable then begin
            let what =
              if site.Graph.sraw = site.Graph.sname then site.Graph.sname
              else Printf.sprintf "%s (= %s)" site.Graph.sraw site.Graph.sname
            in
            let why =
              match kind with
              | Rules_det.Nrandom -> "nondeterministic global RNG"
              | Rules_det.Nclock -> "wall-clock read"
              | Rules_det.Nhash -> "bucket-order Hashtbl traversal"
            in
            let via =
              if reachable then
                Printf.sprintf "; reachable from determinism root via %s"
                  (Graph.chain g parent i)
              else ""
            in
            findings :=
              Rule.finding g001_rule ~file ~line:site.Graph.sline ~col:site.Graph.scol
                (Printf.sprintf
                   "%s: %s escapes the syntactic D-rule (aliased or indirect \
                    use)%s"
                   what why via)
              :: !findings
          end)
        node.Graph.nndet)
    g.Graph.nodes;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* G003. *)

let g003_rule =
  {
    Rule.id = "G003";
    title = "exception escapes a handler root";
    doc =
      "The serve protocol answers every request with a typed response \
       (Result / Error frames); an exception that unwinds through a \
       handler root instead tears down the connection and leaks internal \
       state into the failure mode.  G003 runs a raise-set fixpoint with \
       per-call-site handler masks and flags every constructor that can \
       reach a [@lint.root \"handler\"] function uncaught.";
    check = (fun _ -> []);
  }

let default_interesting =
  [ "Failure"; "Invalid_argument"; "Not_found"; "Assert_failure"; "Match_failure" ]

let g003 ?(interesting = default_interesting) (g : Graph.t) =
  let sets = raise_sets g in
  let roots = Graph.roots_of_kind g "handler" in
  let findings = ref [] in
  List.iter
    (fun r ->
      let root = g.Graph.nodes.(r) in
      List.iter
        (fun (exn, o) ->
          if List.mem exn interesting then
            findings :=
              Rule.finding g003_rule ~file:o.ofile ~line:o.oline ~col:o.ocol
                (Printf.sprintf
                   "%s raised here can escape handler root %s uncaught; map it \
                    into the typed protocol error set (or catch it at the \
                    boundary)"
                   exn root.Graph.id)
              :: !findings)
        sets.(r))
    roots;
  (* One finding per (site, exn, root) would repeat across roots; the sort
     in the engine dedups nothing, so dedup here. *)
  List.sort_uniq Rule.compare_finding !findings
