(* Renderers return strings (D006: the CLI owns stdout).  Both formats are
   byte-deterministic: findings are pre-sorted by the engine and nothing here
   consults the environment. *)

let human (res : Engine.result) =
  let b = Buffer.create 512 in
  List.iter
    (fun (f : Rule.finding) ->
      Buffer.add_string b
        (Printf.sprintf "%s:%d:%d %s error: %s\n" f.Rule.file f.Rule.line f.Rule.col
           f.Rule.rule f.Rule.message))
    res.Engine.findings;
  let e = Engine.errors res in
  if e = 0 then
    Buffer.add_string b
      (Printf.sprintf "lint clean: %d files checked, %d finding(s) waived.\n"
         res.Engine.files
         (List.length res.Engine.waived))
  else
    Buffer.add_string b
      (Printf.sprintf "%d error(s) in %d files (%d waived).\n" e res.Engine.files
         (List.length res.Engine.waived));
  Buffer.contents b

(* Every finding is an error; version 1 of the report keeps its
   [severity] and [warnings] fields at their only values. *)
let finding_json (f : Rule.finding) =
  Printf.sprintf
    "{\"rule\":\"%s\",\"severity\":\"error\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"message\":\"%s\"}"
    (Rule.json_escape f.Rule.rule) (Rule.json_escape f.Rule.file) f.Rule.line f.Rule.col
    (Rule.json_escape f.Rule.message)

let json (res : Engine.result) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\"version\":1,\"files\":%d,\"errors\":%d,\"warnings\":0,\"waived\":%d,"
       res.Engine.files (Engine.errors res)
       (List.length res.Engine.waived));
  Buffer.add_string b "\"findings\":[";
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b "\n";
      Buffer.add_string b (finding_json f))
    res.Engine.findings;
  Buffer.add_string b "]}\n";
  Buffer.contents b
