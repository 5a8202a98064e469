(* Source discovery.  Everything is sorted so the engine's input — and hence
   its output — is a pure function of the tree's contents. *)

let e000 ~path (line, col, msg) =
  {
    Rule.rule = "E000";
    file = path;
    line;
    col;
    message = "syntax error: " ^ msg;
  }

let of_string ~path code =
  if Filename.check_suffix path ".mli" then
    match Syntax.parse_interface_string ~path code with
    | Ok sg ->
        { Rule.path; kind = Rule.Intf; ast = None; intf = Some sg; parse_error = None }
    | Error err ->
        {
          Rule.path;
          kind = Rule.Intf;
          ast = None;
          intf = None;
          parse_error = Some (e000 ~path err);
        }
  else
    match Syntax.parse_string ~path code with
    | Ok ast ->
        { Rule.path; kind = Rule.Impl; ast = Some ast; intf = None; parse_error = None }
    | Error err ->
        {
          Rule.path;
          kind = Rule.Impl;
          ast = None;
          intf = None;
          parse_error = Some (e000 ~path err);
        }

let hidden name = name = "" || name.[0] = '.' || name.[0] = '_'

let excluded ~exclude path =
  List.exists (fun p -> path = p || String.starts_with ~prefix:(p ^ "/") path) exclude

let source_file name =
  Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"

let load ~root ~dirs ~exclude =
  let files = ref [] in
  let rec walk rel =
    let full = Filename.concat root rel in
    match Sys.is_directory full with
    | exception Sys_error _ -> ()
    | false -> ()
    | true ->
        Array.iter
          (fun name ->
            if not (hidden name) then begin
              let rel = rel ^ "/" ^ name in
              if not (excluded ~exclude rel) then begin
                let full = Filename.concat root rel in
                if Sys.is_directory full then walk rel
                else if source_file name then files := rel :: !files
              end
            end)
          (Sys.readdir full)
  in
  List.iter walk dirs;
  !files
  |> List.sort compare
  |> List.map (fun path ->
         let code =
           In_channel.with_open_bin (Filename.concat root path) In_channel.input_all
         in
         of_string ~path code)

(* The deep pass resolves cross-library references through dune's library
   names (lib/core is library [fuzzy], so callers write [Fuzzy.Analysis]).
   Parse the [(name x)] field of each lib/<dir>/dune; a directory without
   one falls back to its own basename. *)
let dune_library_name text =
  let n = String.length text in
  let rec skip_ws i = if i < n && (text.[i] = ' ' || text.[i] = '\n' || text.[i] = '\t' || text.[i] = '\r') then skip_ws (i + 1) else i in
  let rec find i =
    if i >= n then None
    else
      match String.index_from_opt text i '(' with
      | None -> None
      | Some j ->
          let k = skip_ws (j + 1) in
          if k + 4 <= n && String.sub text k 4 = "name"
             && (k + 4 = n || text.[k + 4] = ' ' || text.[k + 4] = '\n' || text.[k + 4] = '\t')
          then begin
            let s = skip_ws (k + 4) in
            let e = ref s in
            while
              !e < n
              && (match text.[!e] with
                 | ')' | ' ' | '\n' | '\t' | '\r' -> false
                 | _ -> true)
            do
              incr e
            done;
            if !e > s then Some (String.sub text s (!e - s)) else None
          end
          else find (j + 1)
  in
  find 0

let libraries ~root =
  let libdir = Filename.concat root "lib" in
  match Sys.readdir libdir with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.sort compare
      |> List.filter_map (fun dir ->
             let dune = Filename.concat (Filename.concat libdir dir) "dune" in
             if Sys.file_exists dune then
               let text = In_channel.with_open_bin dune In_channel.input_all in
               match dune_library_name text with
               | Some name -> Some (dir, name)
               | None -> None
             else None)
