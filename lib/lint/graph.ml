(* The deep half of the linter: a module-qualified, alias-aware reference
   graph over the whole tree, built from the Parsetree alone (no typing).

   Every top-level value binding (and every named local function under it)
   becomes a node; every value identifier the binding mentions becomes an
   edge, resolved through the module environment — `module H = Hashtbl`
   aliases, nested modules, library-sibling references (`Clock.now` inside
   lib/serve), and dune's library names (lib/core is library `fuzzy`).
   What cannot be resolved to a repo node keeps its canonical external name
   (`Hashtbl.fold`), which is exactly what the effect tables key on.

   The graph is a syntactic over/under-approximation, not a type-checked
   call graph; DESIGN.md §15 lists the soundness caveats.  Everything here
   is deterministic: nodes are sorted by id, edges kept in traversal order,
   and no unsorted Hashtbl traversal ever reaches the output. *)

(* ------------------------------------------------------------------ *)
(* Deterministic Hashtbl access for the builder's own tables. *)

let sorted_bindings tbl =
  let all = (Hashtbl.fold [@lint.allow "D003"]) (fun k v acc -> (k, v) :: acc) tbl [] in
  List.sort (fun (a, _) (b, _) -> compare a b) all

(* ------------------------------------------------------------------ *)
(* Tarjan strongly-connected components, iterative, over int adjacency.
   Components are numbered in completion order, which for Tarjan means
   reverse topological order: every edge u -> v between distinct
   components satisfies [comp u >= comp v].  Processing components in
   increasing id therefore visits callees before callers — the order the
   effect fixpoint wants. *)

module Scc = struct
  type result = { comp : int array; count : int }

  let compute ~n ~succ =
    let index = Array.make n (-1) in
    let lowlink = Array.make n 0 in
    let on_stack = Array.make n false in
    let comp = Array.make n (-1) in
    let stack = ref [] in
    let next_index = ref 0 in
    let next_comp = ref 0 in
    (* Explicit work stack: (node, next successor position). *)
    let work = ref [] in
    let push_node v =
      index.(v) <- !next_index;
      lowlink.(v) <- !next_index;
      incr next_index;
      stack := v :: !stack;
      on_stack.(v) <- true;
      work := (v, ref 0) :: !work
    in
    for root = 0 to n - 1 do
      if index.(root) < 0 then begin
        push_node root;
        while !work <> [] do
          match !work with
          | [] -> ()
          | (v, pos) :: rest ->
              let succs = succ.(v) in
              if !pos < Array.length succs then begin
                let w = succs.(!pos) in
                incr pos;
                if index.(w) < 0 then push_node w
                else if on_stack.(w) then
                  lowlink.(v) <- min lowlink.(v) index.(w)
              end
              else begin
                work := rest;
                (match rest with
                | (parent, _) :: _ -> lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
                | [] -> ());
                if lowlink.(v) = index.(v) then begin
                  let rec pop () =
                    match !stack with
                    | [] -> ()
                    | w :: tl ->
                        stack := tl;
                        on_stack.(w) <- false;
                        comp.(w) <- !next_comp;
                        if w <> v then pop ()
                  in
                  pop ();
                  incr next_comp
                end
              end
        done
      end
    done;
    { comp; count = !next_comp }

  (* True iff the condensation has no cycle — i.e. every edge goes from a
     component with higher-or-equal id to a lower one, with equality only
     inside a component.  This is the QCheck property. *)
  let condensation_is_dag ~n ~succ { comp; _ } =
    let ok = ref true in
    for v = 0 to n - 1 do
      Array.iter (fun w -> if comp.(v) < comp.(w) then ok := false) succ.(v)
    done;
    !ok
end

(* ------------------------------------------------------------------ *)
(* Vocabulary. *)

type mask = MNone | MSome of string list | MAll

type edge = {
  dst : string;  (* node id when [eresolved], canonical external name otherwise *)
  eresolved : bool;
  eapplied : bool;
  etask : bool;  (* lexically inside a pool-task closure argument *)
  emask : mask;  (* exceptions caught around the use site *)
  eraw : string;  (* the identifier as written, pre-resolution *)
  eline : int;
  ecol : int;
}

type write = {
  wtarget : string;  (* canonical id of the module-level mutable binding *)
  wline : int;
  wcol : int;
  wtask : bool;
}

type raise_site = { rexn : string; rline : int; rcol : int }

type ndet_site = {
  skind : Rules_det.kind;
  sname : string;  (* resolved canonical name, e.g. "Hashtbl.fold" *)
  sraw : string;  (* as written, e.g. "H.fold" *)
  sline : int;
  scol : int;
}

type node = {
  id : string;
  nmodule : string;
  nfile : string;
  nline : int;
  ncol : int;
  ntop : bool;
  mutable nroots : string list;  (* [@lint.root "..."] kinds, sorted *)
  mutable nedges : edge list;  (* traversal order *)
  mutable nwrites : write list;
  mutable nraises : raise_site list;  (* sites surviving their lexical masks *)
  mutable nsyncs : (int * int) list;  (* Mutex.lock/protect call positions *)
  mutable nndet : ndet_site list;
}

type mut_kind = Ref | Table | Container | Atomic | Lock

type global = {
  gid : string;  (* canonical id, e.g. "Fuzzy.Experiments.cache" *)
  gkind : mut_kind;
  gfile : string;
  gline : int;
}

type export = {
  xmodule : string;
  xname : string;
  xfile : string;
  xline : int;
  xcol : int;
}

type t = {
  nodes : node array;  (* sorted by id *)
  index : (string, int) Hashtbl.t;
  globals : global list;  (* sorted by gid *)
  exports : export list;  (* sorted by (xfile, xline) *)
  task_entries : string list;  (* node ids passed to the pool, sorted *)
  escaping : string list;  (* module ids used as functor args / packed / included *)
  open_uses : (string * string) list;  (* (module, value) usable via an open *)
  roots : (string * string) list;  (* (kind, node id), sorted *)
}

(* ------------------------------------------------------------------ *)
(* External-name classification tables. *)

let pool_functions = [ "Parallel.Pool.map"; "Parallel.Pool.submit" ]

let mutators =
  (* (function, index of the mutated positional argument) *)
  [
    (":=", 0); ("incr", 0); ("decr", 0);
    ("Hashtbl.add", 0); ("Hashtbl.replace", 0); ("Hashtbl.remove", 0);
    ("Hashtbl.reset", 0); ("Hashtbl.clear", 0); ("Hashtbl.filter_map_inplace", 0);
    ("Queue.push", 1); ("Queue.add", 1); ("Queue.pop", 0); ("Queue.take", 0);
    ("Queue.clear", 0); ("Queue.transfer", 0);
    ("Stack.push", 1); ("Stack.pop", 0); ("Stack.clear", 0);
    ("Buffer.add_string", 0); ("Buffer.add_char", 0); ("Buffer.add_buffer", 0);
    ("Buffer.add_substring", 0); ("Buffer.clear", 0); ("Buffer.reset", 0);
    ("Buffer.truncate", 0);
    ("Array.set", 0); ("Array.fill", 0); ("Array.blit", 0);
    ("Bytes.set", 0); ("Bytes.fill", 0); ("Bytes.blit", 0);
  ]

let atomic_ops =
  [
    "Atomic.set"; "Atomic.exchange"; "Atomic.compare_and_set"; "Atomic.incr";
    "Atomic.decr"; "Atomic.fetch_and_add";
  ]

let sync_calls = [ "Mutex.lock"; "Mutex.protect" ]

let raiser_table =
  [
    ("Hashtbl.find", "Not_found"); ("List.find", "Not_found");
    ("List.assoc", "Not_found"); ("Sys.getenv", "Not_found");
    ("List.hd", "Failure"); ("List.tl", "Failure");
    ("int_of_string", "Failure"); ("float_of_string", "Failure");
    ("Option.get", "Invalid_argument");
  ]

let io_names =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char"; "print_int";
    "print_float"; "prerr_string"; "prerr_endline"; "prerr_newline"; "read_line";
    "open_in"; "open_in_bin"; "open_out"; "open_out_bin"; "close_in"; "close_out";
    "really_input"; "exit"; "Printf.printf"; "Printf.eprintf"; "Printf.fprintf";
    "Format.printf"; "Format.eprintf"; "Format.fprintf"; "Sys.readdir";
    "Sys.file_exists"; "Sys.is_directory"; "Sys.remove"; "Sys.rename";
    "Sys.getenv"; "Sys.getenv_opt"; "Sys.command"; "Sys.mkdir";
  ]

let io_prefixes = [ "Unix."; "In_channel."; "Out_channel."; "output_"; "input_" ]

let is_io name =
  (List.mem name io_names
  || List.exists (fun p -> String.starts_with ~prefix:p name) io_prefixes)
  && Rules_det.ndet_of_name name <> Some Rules_det.Nclock

(* Determinism-critical roots: the analysis/CV kernels, the streaming
   driver, the serve request path and the store codec.  `handler` roots
   additionally carry the exception-escape obligation (G003).  Code can add
   its own roots with [@lint.root "determinism"|"handler"|"task"]. *)
let default_roots =
  [
    ("determinism", "Fuzzy.Analysis.analyze");
    ("determinism", "Fuzzy.Experiments.analyze_cached");
    ("determinism", "Rtree.Cv.");
    ("determinism", "Rtree.Tree.build");
    ("determinism", "Sampling.Driver.stream");
    ("determinism", "Store.Codec.");
    ("determinism", "Online.Pipeline.");
    ("determinism", "Serve.Server.run");
    ("handler", "Serve.Server.run");
  ]

(* ------------------------------------------------------------------ *)
(* Module identity. *)

let capitalize = String.capitalize_ascii

let module_of_path ~libnames path =
  let base = capitalize (Filename.remove_extension (Filename.basename path)) in
  match String.split_on_char '/' path with
  | "lib" :: dir :: _ ->
      let lib =
        match List.assoc_opt dir libnames with
        | Some name -> capitalize name
        | None -> capitalize dir
      in
      if lib = base then lib else lib ^ "." ^ base
  | _ -> base

(* ------------------------------------------------------------------ *)
(* Pass 1: module table — which values and submodules each module has. *)

type mentry = {
  mutable mvalues : string list;
  mutable msubs : string list;
  mutable mexns : string list;
  mfile : string;
}

let pat_vars p =
  let acc = ref [] in
  let rec go (p : Parsetree.pattern) =
    match p.Parsetree.ppat_desc with
    | Parsetree.Ppat_var { Asttypes.txt; _ } -> acc := txt :: !acc
    | Parsetree.Ppat_alias (inner, { Asttypes.txt; _ }) ->
        acc := txt :: !acc;
        go inner
    | Parsetree.Ppat_tuple ps | Parsetree.Ppat_array ps -> List.iter go ps
    | Parsetree.Ppat_construct (_, Some (_, inner)) -> go inner
    | Parsetree.Ppat_variant (_, Some inner) -> go inner
    | Parsetree.Ppat_record (fields, _) -> List.iter (fun (_, p) -> go p) fields
    | Parsetree.Ppat_or (a, b) ->
        go a;
        go b
    | Parsetree.Ppat_constraint (inner, _)
    | Parsetree.Ppat_lazy inner
    | Parsetree.Ppat_exception inner ->
        go inner
    | Parsetree.Ppat_open (_, inner) -> go inner
    | _ -> ()
  in
  go p;
  List.rev !acc

let rec collect_structure table ~mid ~mfile items =
  let entry =
    match Hashtbl.find_opt table mid with
    | Some e -> e
    | None ->
        let e = { mvalues = []; msubs = []; mexns = []; mfile } in
        Hashtbl.replace table mid e;
        e
  in
  List.iter
    (fun (si : Parsetree.structure_item) ->
      match si.Parsetree.pstr_desc with
      | Parsetree.Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              entry.mvalues <- pat_vars vb.Parsetree.pvb_pat @ entry.mvalues)
            vbs
      | Parsetree.Pstr_primitive vd ->
          entry.mvalues <- vd.Parsetree.pval_name.Asttypes.txt :: entry.mvalues
      | Parsetree.Pstr_exception te ->
          entry.mexns <-
            te.Parsetree.ptyexn_constructor.Parsetree.pext_name.Asttypes.txt
            :: entry.mexns
      | Parsetree.Pstr_module mb -> collect_module table ~mid ~mfile mb
      | Parsetree.Pstr_recmodule mbs ->
          List.iter (collect_module table ~mid ~mfile) mbs
      | _ -> ())
    items

and collect_module table ~mid ~mfile (mb : Parsetree.module_binding) =
  match mb.Parsetree.pmb_name.Asttypes.txt with
  | None -> ()
  | Some name -> (
      let entry = Hashtbl.find table mid in
      entry.msubs <- name :: entry.msubs;
      let rec strip (me : Parsetree.module_expr) =
        match me.Parsetree.pmod_desc with
        | Parsetree.Pmod_constraint (inner, _) -> strip inner
        | d -> d
      in
      match strip mb.Parsetree.pmb_expr with
      | Parsetree.Pmod_structure items ->
          collect_structure table ~mid:(mid ^ "." ^ name) ~mfile items
      | Parsetree.Pmod_functor (_, body) -> (
          match strip body with
          | Parsetree.Pmod_structure items ->
              collect_structure table ~mid:(mid ^ "." ^ name) ~mfile items
          | _ -> ())
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* Pass 2: reference extraction. *)

type local = Lval | Lfun of string

type env = {
  self : string;
  libroot : string option;
  aliases : (string * string) list;  (* module name -> canonical module id *)
  opens : string list;
  locals : (string * local) list;
}

type builder = {
  table : (string, mentry) Hashtbl.t;
  bnodes : (string, node) Hashtbl.t;
  mutable border : string list;  (* creation order, reversed *)
  mutable btasks : string list;
  mutable bescaping : string list;
  mutable bglobals : global list;
  mutable bopen_uses : (string * string) list;
}

let table_has_value b mid v =
  match Hashtbl.find_opt b.table mid with
  | Some e -> List.mem v e.mvalues
  | None -> false

let table_has_exn b mid c =
  match Hashtbl.find_opt b.table mid with
  | Some e -> List.mem c e.mexns
  | None -> false

let resolve_module b env parts =
  match parts with
  | [] -> ""
  | head :: rest ->
      let base =
        match List.assoc_opt head env.aliases with
        | Some canon -> canon
        | None ->
            if Hashtbl.mem b.table (env.self ^ "." ^ head) then
              env.self ^ "." ^ head
            else (
              match env.libroot with
              | Some l
                when l ^ "." ^ head <> env.self
                     && Hashtbl.mem b.table (l ^ "." ^ head) ->
                  l ^ "." ^ head
              | _ -> head)
      in
      String.concat "." (base :: rest)

type resolution =
  | Rlocal
  | Rnode of string  (* repo node id *)
  | Rext of string  (* canonical external name *)

let split_last parts =
  match List.rev parts with
  | last :: revinit -> (List.rev revinit, last)
  | [] -> ([], "")

let resolve_value b env parts =
  match parts with
  | [] -> Rlocal
  | [ v ] -> (
      match List.assoc_opt v env.locals with
      | Some Lval -> Rlocal
      | Some (Lfun id) -> Rnode id
      | None -> (
          (* opens first (innermost), then the enclosing module chain. *)
          let rec via_opens = function
            | [] -> None
            | o :: rest ->
                if table_has_value b o v then Some (Rnode (o ^ "." ^ v))
                else via_opens rest
          in
          match via_opens env.opens with
          | Some r ->
              (* A bare name may belong to any opened module: record every
                 candidate as a potential use so G004 never calls an
                 ambiguous export dead. *)
              List.iter
                (fun o ->
                  if table_has_value b o v then
                    b.bopen_uses <- (o, v) :: b.bopen_uses)
                env.opens;
              r
          | None ->
              let rec via_self mid =
                if table_has_value b mid v then Some (Rnode (mid ^ "." ^ v))
                else
                  match String.rindex_opt mid '.' with
                  | Some i -> via_self (String.sub mid 0 i)
                  | None -> None
              in
              (match via_self env.self with
              | Some r -> r
              | None -> Rext v)))
  | _ ->
      let mparts, v = split_last parts in
      let cm = resolve_module b env mparts in
      if table_has_value b cm v then Rnode (cm ^ "." ^ v) else Rext (cm ^ "." ^ v)

let resolve_exn b env parts =
  match parts with
  | [ c ] ->
      let rec via_self mid =
        if table_has_exn b mid c then Some (mid ^ "." ^ c)
        else
          match String.rindex_opt mid '.' with
          | Some i -> via_self (String.sub mid 0 i)
          | None -> None
      in
      (match via_self env.self with Some n -> n | None -> c)
  | _ ->
      let mparts, c = split_last parts in
      let cm = resolve_module b env mparts in
      cm ^ "." ^ c

let lid_parts lid =
  let rec flatten acc = function
    | Longident.Lident s -> Some (s :: acc)
    | Longident.Ldot (l, s) -> flatten (s :: acc) l
    | Longident.Lapply _ -> None
  in
  Option.map Syntax.strip_stdlib (flatten [] lid)

let mask_catches mask exn =
  match mask with
  | MNone -> false
  | MAll -> true
  | MSome names -> exn <> "?" && List.mem exn names

let combine_masks masks =
  if List.exists (fun m -> m = MAll) masks then MAll
  else
    match List.concat_map (function MSome l -> l | _ -> []) masks with
    | [] -> MNone
    | l -> MSome l

(* Walker context: which node accumulates, which top-level node owns the
   sync points, the lexical mask stack, and the task flag. *)
type wctx = {
  b : builder;
  node : node;
  topnode : node;
  masks : mask list;
  in_task : bool;
}

let fresh_node b ~id ~nmodule ~nfile ~loc ~ntop =
  let id =
    if not (Hashtbl.mem b.bnodes id) then id
    else
      let rec next k =
        let cand = Printf.sprintf "%s@%d" id k in
        if Hashtbl.mem b.bnodes cand then next (k + 1) else cand
      in
      next 2
  in
  let line, col = Syntax.line_col loc in
  let n =
    {
      id;
      nmodule;
      nfile;
      nline = line;
      ncol = col;
      ntop;
      nroots = [];
      nedges = [];
      nwrites = [];
      nraises = [];
      nsyncs = [];
      nndet = [];
    }
  in
  Hashtbl.replace b.bnodes id n;
  b.border <- id :: b.border;
  n

let add_edge ctx ~dst ~resolved ~applied ~raw (loc : Location.t) =
  let line, col = Syntax.line_col loc in
  ctx.node.nedges <-
    {
      dst;
      eresolved = resolved;
      eapplied = applied;
      etask = ctx.in_task;
      emask = combine_masks ctx.masks;
      eraw = raw;
      eline = line;
      ecol = col;
    }
    :: ctx.node.nedges

let record_effects ctx ~name ~raw (loc : Location.t) =
  let line, col = Syntax.line_col loc in
  (match Rules_det.ndet_of_name name with
  | Some k ->
      ctx.node.nndet <-
        { skind = k; sname = name; sraw = raw; sline = line; scol = col }
        :: ctx.node.nndet
  | None -> ());
  (match List.assoc_opt name raiser_table with
  | Some exn ->
      if not (List.exists (fun m -> mask_catches m exn) ctx.masks) then
        ctx.node.nraises <- { rexn = exn; rline = line; rcol = col } :: ctx.node.nraises
  | None -> ());
  if List.mem name sync_calls then ctx.topnode.nsyncs <- (line, col) :: ctx.topnode.nsyncs

let record_raise ctx ~exn (loc : Location.t) =
  if not (List.exists (fun m -> mask_catches m exn) ctx.masks) then begin
    let line, col = Syntax.line_col loc in
    ctx.node.nraises <- { rexn = exn; rline = line; rcol = col } :: ctx.node.nraises
  end

let is_global b canon =
  List.exists (fun g -> g.gid = canon) b.bglobals

let global_kind b canon =
  match List.find_opt (fun g -> g.gid = canon) b.bglobals with
  | Some g -> Some g.gkind
  | None -> None

let record_write ctx ~target (loc : Location.t) =
  match global_kind ctx.b target with
  | None | Some Atomic | Some Lock -> ()
  | Some (Ref | Table | Container) ->
      let line, col = Syntax.line_col loc in
      ctx.node.nwrites <-
        { wtarget = target; wline = line; wcol = col; wtask = ctx.in_task }
        :: ctx.node.nwrites

(* Mask contributed by the exception cases of a try/match. *)
let mask_of_cases b env ~exception_only cases =
  let names = ref [] in
  let all = ref false in
  let rec pat_exns (p : Parsetree.pattern) =
    match p.Parsetree.ppat_desc with
    | Parsetree.Ppat_any | Parsetree.Ppat_var _ -> all := true
    | Parsetree.Ppat_alias (inner, _) -> pat_exns inner
    | Parsetree.Ppat_or (a, c) ->
        pat_exns a;
        pat_exns c
    | Parsetree.Ppat_construct ({ Asttypes.txt; _ }, _) -> (
        match lid_parts txt with
        | Some parts -> names := resolve_exn b env parts :: !names
        | None -> ())
    | Parsetree.Ppat_constraint (inner, _) -> pat_exns inner
    | _ -> all := true
  in
  List.iter
    (fun (c : Parsetree.case) ->
      if exception_only then (
        match c.Parsetree.pc_lhs.Parsetree.ppat_desc with
        | Parsetree.Ppat_exception inner -> pat_exns inner
        | _ -> ())
      else pat_exns c.Parsetree.pc_lhs)
    cases;
  if !all then MAll else MSome !names

let rec walk env ctx (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident { Asttypes.txt; loc } -> (
      match lid_parts txt with
      | None -> ()
      | Some parts -> use env ctx ~applied:false ~args:[] parts loc)
  | Parsetree.Pexp_apply ({ Parsetree.pexp_desc = Parsetree.Pexp_ident { Asttypes.txt; loc }; _ }, args) ->
      (match lid_parts txt with
      | None -> List.iter (fun (_, a) -> walk env ctx a) args
      | Some parts -> use env ctx ~applied:true ~args parts loc)
  | Parsetree.Pexp_apply (f, args) ->
      walk env ctx f;
      List.iter (fun (_, a) -> walk env ctx a) args
  | Parsetree.Pexp_let (_, vbs, body) ->
      let env' = walk_local_bindings env ctx vbs in
      walk env' ctx body
  | Parsetree.Pexp_fun (_, default, pat, body) ->
      Option.iter (walk env ctx) default;
      let env' =
        { env with locals = List.map (fun v -> (v, Lval)) (pat_vars pat) @ env.locals }
      in
      walk env' ctx body
  | Parsetree.Pexp_function cases -> walk_cases env ctx cases
  | Parsetree.Pexp_try (body, cases) ->
      let m = mask_of_cases ctx.b env ~exception_only:false cases in
      walk env { ctx with masks = m :: ctx.masks } body;
      walk_cases env ctx cases
  | Parsetree.Pexp_match (scrut, cases) ->
      let m = mask_of_cases ctx.b env ~exception_only:true cases in
      let has_exn_case =
        List.exists
          (fun (c : Parsetree.case) ->
            match c.Parsetree.pc_lhs.Parsetree.ppat_desc with
            | Parsetree.Ppat_exception _ -> true
            | _ -> false)
          cases
      in
      if has_exn_case then walk env { ctx with masks = m :: ctx.masks } scrut
      else walk env ctx scrut;
      walk_cases env ctx cases
  | Parsetree.Pexp_setfield (target, _, value) ->
      (match target.Parsetree.pexp_desc with
      | Parsetree.Pexp_ident { Asttypes.txt; loc } -> (
          match lid_parts txt with
          | Some parts -> (
              match resolve_value ctx.b env parts with
              | Rnode id -> record_write ctx ~target:id loc
              | Rlocal | Rext _ -> ())
          | None -> ())
      | _ -> ());
      walk env ctx target;
      walk env ctx value
  | Parsetree.Pexp_letmodule ({ Asttypes.txt = name; _ }, me, body) ->
      let env' =
        match (name, strip_mod me) with
        | Some n, Parsetree.Pmod_ident { Asttypes.txt; _ } -> (
            match lid_parts txt with
            | Some parts ->
                { env with aliases = (n, resolve_module ctx.b env parts) :: env.aliases }
            | None -> env)
        | _ ->
            walk_module_expr env ctx me;
            env
      in
      walk env' ctx body
  | Parsetree.Pexp_open (od, body) ->
      let env' =
        match strip_mod od.Parsetree.popen_expr with
        | Parsetree.Pmod_ident { Asttypes.txt; _ } -> (
            match lid_parts txt with
            | Some parts ->
                { env with opens = resolve_module ctx.b env parts :: env.opens }
            | None -> env)
        | _ -> env
      in
      walk env' ctx body
  | Parsetree.Pexp_assert inner ->
      (match inner.Parsetree.pexp_desc with
      | Parsetree.Pexp_construct ({ Asttypes.txt = Longident.Lident "true"; _ }, None) -> ()
      | _ -> record_raise ctx ~exn:"Assert_failure" e.Parsetree.pexp_loc);
      walk env ctx inner
  | Parsetree.Pexp_letexception (_, body) -> walk env ctx body
  | Parsetree.Pexp_pack me -> walk_module_expr env ctx me
  | Parsetree.Pexp_newtype (_, body) -> walk env ctx body
  | Parsetree.Pexp_for (pat, lo, hi, _, body) ->
      walk env ctx lo;
      walk env ctx hi;
      let env' =
        { env with locals = List.map (fun v -> (v, Lval)) (pat_vars pat) @ env.locals }
      in
      walk env' ctx body
  | _ ->
      (* Structurally recurse into every child expression with the same
         environment; patterns and types carry nothing we track here. *)
      let it =
        {
          Ast_iterator.default_iterator with
          Ast_iterator.expr = (fun _ child -> walk env ctx child);
        }
      in
      Ast_iterator.default_iterator.Ast_iterator.expr it e

and strip_mod (me : Parsetree.module_expr) =
  match me.Parsetree.pmod_desc with
  | Parsetree.Pmod_constraint (inner, _) -> strip_mod inner
  | d -> d

and walk_module_expr env ctx (me : Parsetree.module_expr) =
  (* A module used as a value (packed, applied to a functor): its whole
     surface may be consumed — record it as escaping. *)
  match strip_mod me with
  | Parsetree.Pmod_ident { Asttypes.txt; _ } -> (
      match lid_parts txt with
      | Some parts ->
          let cm = resolve_module ctx.b env parts in
          if Hashtbl.mem ctx.b.table cm then ctx.b.bescaping <- cm :: ctx.b.bescaping
      | None -> ())
  | Parsetree.Pmod_apply (f, arg) ->
      walk_module_expr env ctx f;
      walk_module_expr env ctx arg
  | Parsetree.Pmod_structure _ | Parsetree.Pmod_functor _ ->
      (* Expressions inside are still scanned for effects. *)
      let it =
        {
          Ast_iterator.default_iterator with
          Ast_iterator.expr = (fun _ child -> walk env ctx child);
        }
      in
      it.Ast_iterator.module_expr it me
  | _ -> ()

and walk_cases env ctx cases =
  List.iter
    (fun (c : Parsetree.case) ->
      let env' =
        {
          env with
          locals =
            List.map (fun v -> (v, Lval)) (pat_vars c.Parsetree.pc_lhs) @ env.locals;
        }
      in
      Option.iter (walk env' ctx) c.Parsetree.pc_guard;
      walk env' ctx c.Parsetree.pc_rhs)
    cases

and walk_local_bindings env ctx vbs =
  (* Named local functions become sub-nodes, so pool tasks and raise flow
     can be tracked per closure instead of smearing over the parent. *)
  let is_fun (e : Parsetree.expression) =
    let rec go (e : Parsetree.expression) =
      match e.Parsetree.pexp_desc with
      | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ -> true
      | Parsetree.Pexp_newtype (_, body) -> go body
      | _ -> false
    in
    go e
  in
  let extended =
    List.fold_left
      (fun acc (vb : Parsetree.value_binding) ->
        match (vb.Parsetree.pvb_pat.Parsetree.ppat_desc, is_fun vb.Parsetree.pvb_expr) with
        | Parsetree.Ppat_var { Asttypes.txt; _ }, true ->
            (txt, `Fun vb) :: acc
        | _ ->
            List.map (fun v -> (v, `Val)) (pat_vars vb.Parsetree.pvb_pat) @ acc)
      [] vbs
  in
  (* let rec: make every sibling name visible inside every body. *)
  let names_env =
    {
      env with
      locals =
        List.map
          (fun (n, k) ->
            match k with
            | `Fun _ -> (n, Lfun (ctx.node.id ^ "." ^ n))
            | `Val -> (n, Lval))
          extended
        @ env.locals;
    }
  in
  List.iter
    (fun (vb : Parsetree.value_binding) ->
      match (vb.Parsetree.pvb_pat.Parsetree.ppat_desc, is_fun vb.Parsetree.pvb_expr) with
      | Parsetree.Ppat_var { Asttypes.txt; _ }, true ->
          let sub =
            fresh_node ctx.b ~id:(ctx.node.id ^ "." ^ txt) ~nmodule:ctx.node.nmodule
              ~nfile:ctx.node.nfile ~loc:vb.Parsetree.pvb_loc ~ntop:false
          in
          sub.nroots <-
            List.concat_map (Syntax.attr_strings ~name:"lint.root") vb.Parsetree.pvb_attributes;
          if List.mem "task" sub.nroots then ctx.b.btasks <- sub.id :: ctx.b.btasks;
          (* The local name may shadow; rebind to the uniquified id. *)
          let names_env =
            {
              names_env with
              locals =
                (txt, Lfun sub.id)
                :: List.filter (fun (n, _) -> n <> txt) names_env.locals;
            }
          in
          walk names_env { ctx with node = sub } vb.Parsetree.pvb_expr
      | _ -> walk names_env ctx vb.Parsetree.pvb_expr)
    vbs;
  names_env

and use env ctx ~applied ~args parts (loc : Location.t) =
  let raw = String.concat "." parts in
  let resolution = resolve_value ctx.b env parts in
  (match resolution with
  | Rlocal -> ()
  | Rnode id ->
      add_edge ctx ~dst:id ~resolved:true ~applied ~raw loc;
      (* A repo value passed straight to the pool is a task entry even
         without application — handled by the caller for pool calls. *)
      ()
  | Rext name ->
      add_edge ctx ~dst:name ~resolved:false ~applied ~raw loc;
      record_effects ctx ~name ~raw loc);
  let name = match resolution with Rext n -> n | Rnode id -> id | Rlocal -> "" in
  (* Raise primitives. *)
  (match (name, args) with
  | ("raise" | "raise_notrace"), (_, arg) :: _ ->
      let exn =
        match arg.Parsetree.pexp_desc with
        | Parsetree.Pexp_construct ({ Asttypes.txt; _ }, _) -> (
            match lid_parts txt with
            | Some ps -> resolve_exn ctx.b env ps
            | None -> "?")
        | _ -> "?"
      in
      record_raise ctx ~exn loc
  | "Printexc.raise_with_backtrace", (_, arg) :: _ ->
      let exn =
        match arg.Parsetree.pexp_desc with
        | Parsetree.Pexp_construct ({ Asttypes.txt; _ }, _) -> (
            match lid_parts txt with
            | Some ps -> resolve_exn ctx.b env ps
            | None -> "?")
        | _ -> "?"
      in
      record_raise ctx ~exn loc
  | "failwith", _ :: _ -> record_raise ctx ~exn:"Failure" loc
  | "invalid_arg", _ :: _ -> record_raise ctx ~exn:"Invalid_argument" loc
  | _ -> ());
  (* Mutation of module-level state. *)
  (match List.assoc_opt name mutators with
  | Some idx -> (
      match List.nth_opt args idx with
      | Some (_, { Parsetree.pexp_desc = Parsetree.Pexp_ident { Asttypes.txt; loc = tloc }; _ }) -> (
          match lid_parts txt with
          | Some tparts -> (
              match resolve_value ctx.b env tparts with
              | Rnode id -> record_write ctx ~target:id tloc
              | Rlocal | Rext _ -> ())
          | None -> ())
      | _ -> ())
  | None -> ignore atomic_ops);
  (* Pool fan-out: literal closure arguments run as tasks; named function
     arguments (possibly partially applied) become task entries. *)
  let is_pool = List.mem name pool_functions in
  List.iter
    (fun ((_, arg) : Asttypes.arg_label * Parsetree.expression) ->
      let task_literal =
        is_pool
        &&
        match arg.Parsetree.pexp_desc with
        | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ -> true
        | _ -> false
      in
      if is_pool then (
        match arg.Parsetree.pexp_desc with
        | Parsetree.Pexp_ident { Asttypes.txt; _ } -> (
            match lid_parts txt with
            | Some ps -> (
                match resolve_value ctx.b env ps with
                | Rnode id -> ctx.b.btasks <- id :: ctx.b.btasks
                | Rlocal | Rext _ -> ())
            | None -> ())
        | Parsetree.Pexp_apply
            ({ Parsetree.pexp_desc = Parsetree.Pexp_ident { Asttypes.txt; _ }; _ }, _) -> (
            match lid_parts txt with
            | Some ps -> (
                match resolve_value ctx.b env ps with
                | Rnode id -> ctx.b.btasks <- id :: ctx.b.btasks
                | Rlocal | Rext _ -> ())
            | None -> ())
        | _ -> ());
      walk env { ctx with in_task = ctx.in_task || task_literal } arg)
    args

(* ------------------------------------------------------------------ *)
(* Structure-level walk: top-level bindings become nodes; aliases, opens
   and nested modules extend the environment for the following items. *)

let mutable_ctor (e : Parsetree.expression) =
  let rec head (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_apply (f, _) -> head f
    | Parsetree.Pexp_ident { Asttypes.txt; _ } -> (
        match lid_parts txt with
        | Some parts -> Some (String.concat "." parts)
        | None -> None)
    | Parsetree.Pexp_constraint (inner, _) -> head inner
    | _ -> None
  in
  match head e with
  | Some "ref" -> Some Ref
  | Some "Hashtbl.create" -> Some Table
  | Some ("Queue.create" | "Stack.create" | "Buffer.create" | "Array.make"
         | "Array.create_float" | "Array.init" | "Bytes.create" | "Bytes.make") ->
      Some Container
  | Some "Atomic.make" -> Some Atomic
  | Some ("Mutex.create" | "Condition.create" | "Semaphore.Counting.make") -> Some Lock
  | _ -> None

let rec walk_structure b ~env ~mfile items =
  List.fold_left
    (fun env (si : Parsetree.structure_item) ->
      match si.Parsetree.pstr_desc with
      | Parsetree.Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              let names = pat_vars vb.Parsetree.pvb_pat in
              let primary =
                match names with
                | n :: _ -> env.self ^ "." ^ n
                | [] -> env.self ^ ".()"
              in
              let node =
                fresh_node b ~id:primary ~nmodule:env.self ~nfile:mfile
                  ~loc:vb.Parsetree.pvb_loc ~ntop:true
              in
              node.nroots <-
                List.sort compare
                  (List.concat_map (Syntax.attr_strings ~name:"lint.root")
                     vb.Parsetree.pvb_attributes);
              if List.mem "task" node.nroots then b.btasks <- node.id :: b.btasks;
              let ctx = { b; node; topnode = node; masks = []; in_task = false } in
              walk env ctx vb.Parsetree.pvb_expr)
            vbs;
          env
      | Parsetree.Pstr_module mb -> walk_structure_module b ~env ~mfile mb
      | Parsetree.Pstr_recmodule mbs ->
          List.fold_left (fun env mb -> walk_structure_module b ~env ~mfile mb) env mbs
      | Parsetree.Pstr_open od -> (
          match strip_mod od.Parsetree.popen_expr with
          | Parsetree.Pmod_ident { Asttypes.txt; _ } -> (
              match lid_parts txt with
              | Some parts -> { env with opens = resolve_module b env parts :: env.opens }
              | None -> env)
          | _ -> env)
      | Parsetree.Pstr_include incl ->
          (match strip_mod incl.Parsetree.pincl_mod with
          | Parsetree.Pmod_ident { Asttypes.txt; _ } -> (
              match lid_parts txt with
              | Some parts ->
                  let cm = resolve_module b env parts in
                  if Hashtbl.mem b.table cm then b.bescaping <- cm :: b.bescaping
              | None -> ())
          | _ -> ());
          env
      | Parsetree.Pstr_eval (e, _) ->
          let node =
            fresh_node b ~id:(env.self ^ ".()") ~nmodule:env.self ~nfile:mfile
              ~loc:si.Parsetree.pstr_loc ~ntop:true
          in
          let ctx = { b; node; topnode = node; masks = []; in_task = false } in
          walk env ctx e;
          env
      | _ -> env)
    env items

and walk_structure_module b ~env ~mfile (mb : Parsetree.module_binding) =
  match mb.Parsetree.pmb_name.Asttypes.txt with
  | None -> env
  | Some name -> (
      match strip_mod mb.Parsetree.pmb_expr with
      | Parsetree.Pmod_ident { Asttypes.txt; _ } -> (
          match lid_parts txt with
          | Some parts ->
              { env with aliases = (name, resolve_module b env parts) :: env.aliases }
          | None -> env)
      | Parsetree.Pmod_structure items ->
          let sub = env.self ^ "." ^ name in
          let env' = { env with self = sub } in
          let _ = walk_structure b ~env:env' ~mfile items in
          env
      | Parsetree.Pmod_functor (_, body) -> (
          match strip_mod body with
          | Parsetree.Pmod_structure items ->
              let sub = env.self ^ "." ^ name in
              let env' = { env with self = sub } in
              let _ = walk_structure b ~env:env' ~mfile items in
              env
          | _ -> env)
      | Parsetree.Pmod_apply _ ->
          let node =
            fresh_node b ~id:(env.self ^ "." ^ name) ~nmodule:env.self ~nfile:mfile
              ~loc:mb.Parsetree.pmb_loc ~ntop:true
          in
          let ctx = { b; node; topnode = node; masks = []; in_task = false } in
          walk_module_expr env ctx mb.Parsetree.pmb_expr;
          env
      | _ -> env)

(* ------------------------------------------------------------------ *)
(* Build. *)

let build ?(libnames = []) ?(roots = default_roots) sources =
  let table : (string, mentry) Hashtbl.t = Hashtbl.create 64 in
  let impls =
    List.filter_map
      (fun (s : Rule.source) ->
        match (s.Rule.kind, s.Rule.ast) with
        | Rule.Impl, Some ast -> Some (s.Rule.path, ast)
        | _ -> None)
      sources
  in
  List.iter
    (fun (path, ast) ->
      let mid = module_of_path ~libnames path in
      collect_structure table ~mid ~mfile:path ast)
    impls;
  let b =
    {
      table;
      bnodes = Hashtbl.create 256;
      border = [];
      btasks = [];
      bescaping = [];
      bglobals = [];
      bopen_uses = [];
    }
  in
  (* Globals must exist before pass 2 records writes, so inventory them in
     a dedicated mini-pass (top-level `let x = ref ...` only). *)
  List.iter
    (fun (path, ast) ->
      let mid = module_of_path ~libnames path in
      let rec globals_of ~mid items =
        List.iter
          (fun (si : Parsetree.structure_item) ->
            match si.Parsetree.pstr_desc with
            | Parsetree.Pstr_value (_, vbs) ->
                List.iter
                  (fun (vb : Parsetree.value_binding) ->
                    match (pat_vars vb.Parsetree.pvb_pat, mutable_ctor vb.Parsetree.pvb_expr) with
                    | [ n ], Some kind ->
                        let line, _ = Syntax.line_col vb.Parsetree.pvb_loc in
                        if not (is_global b (mid ^ "." ^ n)) then
                          b.bglobals <-
                            { gid = mid ^ "." ^ n; gkind = kind; gfile = path; gline = line }
                            :: b.bglobals
                    | _ -> ())
                  vbs
            | Parsetree.Pstr_module mb -> (
                match mb.Parsetree.pmb_name.Asttypes.txt with
                | Some name -> (
                    match strip_mod mb.Parsetree.pmb_expr with
                    | Parsetree.Pmod_structure items ->
                        globals_of ~mid:(mid ^ "." ^ name) items
                    | _ -> ())
                | None -> ())
            | _ -> ())
          items
      in
      globals_of ~mid ast)
    impls;
  (* Pass 2. *)
  List.iter
    (fun (path, ast) ->
      let mid = module_of_path ~libnames path in
      let libroot =
        match String.split_on_char '/' path with
        | "lib" :: dir :: _ ->
            Some
              (match List.assoc_opt dir libnames with
              | Some name -> capitalize name
              | None -> capitalize dir)
        | _ -> None
      in
      let env = { self = mid; libroot; aliases = []; opens = []; locals = [] } in
      let _ = walk_structure b ~env ~mfile:path ast in
      ())
    impls;
  (* Interfaces: exports for the dead-export audit (lib/ only — bin, test
     and examples are leaves by construction).  Values of nested
     [module X : sig ... end] items are exports too, named by their path
     below the top-level module ([xname = "X.v"]). *)
  let rec sig_exports ~file ~mid ~prefix (sg : Parsetree.signature) =
    List.concat_map
      (fun (item : Parsetree.signature_item) ->
        match item.Parsetree.psig_desc with
        | Parsetree.Psig_value vd ->
            let line, col = Syntax.line_col vd.Parsetree.pval_loc in
            [
              {
                xmodule = mid;
                xname = prefix ^ vd.Parsetree.pval_name.Asttypes.txt;
                xfile = file;
                xline = line;
                xcol = col;
              };
            ]
        | Parsetree.Psig_module
            {
              pmd_name = { txt = Some name; _ };
              pmd_type = { pmty_desc = Parsetree.Pmty_signature sub; _ };
              _;
            } ->
            sig_exports ~file ~mid ~prefix:(prefix ^ name ^ ".") sub
        | _ -> [])
      sg
  in
  let exports =
    List.concat_map
      (fun (s : Rule.source) ->
        match (s.Rule.kind, s.Rule.intf) with
        | Rule.Intf, Some sg when Rule.in_lib s.Rule.path ->
            sig_exports ~file:s.Rule.path
              ~mid:(module_of_path ~libnames s.Rule.path)
              ~prefix:"" sg
        | _ -> [])
      sources
  in
  (* Freeze, sorted. *)
  let ids = List.sort compare (List.rev_map (fun id -> id) b.border) in
  let nodes = Array.of_list (List.map (Hashtbl.find b.bnodes) ids) in
  let index = Hashtbl.create (Array.length nodes) in
  Array.iteri (fun i n -> Hashtbl.replace index n.id i) nodes;
  Array.iter
    (fun n ->
      n.nedges <- List.rev n.nedges;
      n.nwrites <- List.rev n.nwrites;
      n.nraises <- List.rev n.nraises;
      n.nsyncs <- List.sort compare n.nsyncs;
      n.nndet <- List.rev n.nndet)
    nodes;
  let resolved_roots =
    Array.to_list nodes
    |> List.concat_map (fun n ->
           let from_attr =
             List.filter_map
               (fun k ->
                 if k = "determinism" || k = "handler" then Some (k, n.id) else None)
               n.nroots
           in
           let from_patterns =
             (* A pattern ending in '.' is a prefix wildcard; anything else
                must match the node id exactly (sub-nodes of a root are
                reached through its edges, not enrolled as roots). *)
             List.filter_map
               (fun (kind, pat) ->
                 if
                   (String.length pat > 0 && pat.[String.length pat - 1] = '.'
                    && String.starts_with ~prefix:pat n.id)
                   || n.id = pat
                 then Some (kind, n.id)
                 else None)
               roots
           in
           from_attr @ from_patterns)
    |> List.sort_uniq compare
  in
  {
    nodes;
    index;
    globals = List.sort compare b.bglobals;
    exports = List.sort compare exports;
    task_entries = List.sort_uniq compare b.btasks;
    escaping = List.sort_uniq compare b.bescaping;
    open_uses = List.sort_uniq compare b.bopen_uses;
    roots = resolved_roots;
  }

(* ------------------------------------------------------------------ *)
(* Adjacency and reachability over resolved edges. *)

let succ t =
  Array.map
    (fun n ->
      List.filter_map
        (fun e -> if e.eresolved then Hashtbl.find_opt t.index e.dst else None)
        n.nedges
      |> List.sort_uniq compare |> Array.of_list)
    t.nodes

let node_index t id = Hashtbl.find_opt t.index id

(* BFS parents from a start set, for deterministic shortest chains. *)
let bfs t ~starts =
  let n = Array.length t.nodes in
  let parent = Array.make n (-2) in
  let sc = succ t in
  let q = Queue.create () in
  List.iter
    (fun i ->
      if parent.(i) = -2 then begin
        parent.(i) <- -1;
        Queue.add i q
      end)
    (List.sort compare starts);
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Array.iter
      (fun w ->
        if parent.(w) = -2 then begin
          parent.(w) <- v;
          Queue.add w q
        end)
      sc.(v)
  done;
  parent

let chain t parent i =
  let rec go acc i n =
    if n > 8 then "..." :: acc
    else if parent.(i) < 0 then t.nodes.(i).id :: acc
    else go (t.nodes.(i).id :: acc) parent.(i) (n + 1)
  in
  String.concat " -> " (go [] i 0)

let roots_of_kind t kind =
  List.filter_map
    (fun (k, id) -> if k = kind then node_index t id else None)
    t.roots
  |> List.sort_uniq compare

(* Task reachability: named task entries plus everything they call; inline
   task closures are already flagged on their edges/writes. *)
let task_reachable t =
  let starts =
    List.filter_map (fun id -> node_index t id) t.task_entries
    @ (Array.to_list t.nodes
      |> List.concat_map (fun n ->
             List.filter_map
               (fun e ->
                 if e.etask && e.eresolved then node_index t e.dst else None)
               n.nedges))
  in
  bfs t ~starts

(* ------------------------------------------------------------------ *)
(* G004: dead .mli exports. *)

let g004_rule =
  {
    Rule.id = "G004";
    title = "dead .mli export";
    doc =
      "An exported value the whole-repo reference graph never sees used \
       outside its own module is API surface without callers: it hides \
       dead code and widens the interface the determinism argument must \
       cover.  Delete it, or waive with a reason if it is deliberate \
       API.";
    check = (fun _ -> []);
  }

let g004 t =
  (* Every resolved use, keyed by canonical id, with the using module. *)
  let used = Hashtbl.create 1024 in
  Array.iter
    (fun n ->
      List.iter
        (fun e -> if e.eresolved then Hashtbl.replace used (e.dst, n.nmodule) ())
        n.nedges)
    t.nodes;
  let uses = List.map fst (sorted_bindings used) in
  let used_outside mid name =
    let id = mid ^ "." ^ name in
    List.exists
      (fun ((dst, from_mod) : string * string) ->
        dst = id && from_mod <> mid
        && not (String.starts_with ~prefix:(mid ^ ".") from_mod))
      uses
  in
  (* A nested export [M.v] is reachable through an open of its own
     module, or lost wholesale when that module escapes. *)
  let owner x =
    match String.rindex_opt x.xname '.' with
    | None -> (x.xmodule, x.xname)
    | Some i ->
        ( x.xmodule ^ "." ^ String.sub x.xname 0 i,
          String.sub x.xname (i + 1) (String.length x.xname - i - 1) )
  in
  let open_used x = List.mem (owner x) t.open_uses in
  let escapes x = List.mem x.xmodule t.escaping || List.mem (fst (owner x)) t.escaping in
  List.filter_map
    (fun x ->
      if escapes x then None
      else if used_outside x.xmodule x.xname then None
      else if open_used x then None
      else
        Some
          (Rule.finding g004_rule ~file:x.xfile ~line:x.xline ~col:x.xcol
             (Printf.sprintf
                "export %s.%s is never referenced outside its module; delete it \
                 (or waive with a reason)"
                x.xmodule x.xname)))
    t.exports

(* ------------------------------------------------------------------ *)
(* Renderers. *)

let module_graph t =
  (* Module-level condensation of the value graph, for dot rendering. *)
  let edges = Hashtbl.create 256 in
  Array.iter
    (fun n ->
      List.iter
        (fun e ->
          if e.eresolved then
            match node_index t e.dst with
            | Some j ->
                let dm = t.nodes.(j).nmodule in
                if dm <> n.nmodule then Hashtbl.replace edges (n.nmodule, dm) ()
            | None -> ())
        n.nedges)
    t.nodes;
  List.map fst (sorted_bindings edges)

let to_json ?(effects = fun _ -> []) t =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"version\":1,\"nodes\":[";
  Array.iteri
    (fun i n ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf "\n";
      let eff = effects n.id in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"id\":\"%s\",\"module\":\"%s\",\"file\":\"%s\",\"line\":%d,\"effects\":[%s],\"roots\":[%s]}"
           (Rule.json_escape n.id) (Rule.json_escape n.nmodule) (Rule.json_escape n.nfile) n.nline
           (String.concat "," (List.map (fun e -> "\"" ^ Rule.json_escape e ^ "\"") eff))
           (String.concat ","
              (List.map (fun r -> "\"" ^ Rule.json_escape r ^ "\"") n.nroots))))
    t.nodes;
  Buffer.add_string buf "],\n\"edges\":[";
  let first = ref true in
  Array.iter
    (fun n ->
      let dsts =
        List.filter_map (fun e -> if e.eresolved then Some e.dst else None) n.nedges
        |> List.sort_uniq compare
      in
      List.iter
        (fun dst ->
          if not !first then Buffer.add_string buf ",";
          first := false;
          Buffer.add_string buf
            (Printf.sprintf "\n[\"%s\",\"%s\"]" (Rule.json_escape n.id) (Rule.json_escape dst)))
        dsts)
    t.nodes;
  Buffer.add_string buf "],\n";
  Buffer.add_string buf
    (Printf.sprintf "\"globals\":[%s],\n"
       (String.concat ","
          (List.map (fun g -> "\"" ^ Rule.json_escape g.gid ^ "\"") t.globals)));
  Buffer.add_string buf
    (Printf.sprintf "\"task_entries\":[%s],\n"
       (String.concat ","
          (List.map (fun s -> "\"" ^ Rule.json_escape s ^ "\"") t.task_entries)));
  Buffer.add_string buf
    (Printf.sprintf "\"roots\":[%s]}\n"
       (String.concat ","
          (List.map
             (fun (k, id) ->
               Printf.sprintf "{\"kind\":\"%s\",\"id\":\"%s\"}" (Rule.json_escape k)
                 (Rule.json_escape id))
             t.roots)));
  Buffer.contents buf

let to_dot ?(effects = fun _ -> []) t =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "digraph repro {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n";
  let modules =
    Array.to_list t.nodes
    |> List.map (fun n -> n.nmodule)
    |> List.sort_uniq compare
  in
  let mod_effects m =
    Array.to_list t.nodes
    |> List.filter (fun n -> n.nmodule = m)
    |> List.concat_map (fun n -> effects n.id)
    |> List.sort_uniq compare
  in
  List.iter
    (fun m ->
      let eff = mod_effects m in
      let label = if eff = [] then m else m ^ "\\n{" ^ String.concat "," eff ^ "}" in
      Buffer.add_string buf (Printf.sprintf "  \"%s\" [label=\"%s\"];\n" m label))
    modules;
  List.iter
    (fun (a, bm) -> Buffer.add_string buf (Printf.sprintf "  \"%s\" -> \"%s\";\n" a bm))
    (module_graph t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let summary t =
  let nedges =
    Array.fold_left
      (fun acc n -> acc + List.length (List.filter (fun e -> e.eresolved) n.nedges))
      0 t.nodes
  in
  let sc = succ t in
  let scc = Scc.compute ~n:(Array.length t.nodes) ~succ:sc in
  Printf.sprintf
    "call graph: %d nodes, %d resolved edges, %d SCCs, %d module-level mutables, \
     %d task entries, %d roots, %d exports\n"
    (Array.length t.nodes) nedges scc.Scc.count (List.length t.globals)
    (List.length t.task_entries) (List.length t.roots) (List.length t.exports)
