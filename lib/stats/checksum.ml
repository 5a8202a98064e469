(* Two running sums mod 65521. *)
let adler32 s =
  let a = ref 1 and b = ref 0 in
  String.iter
    (fun c ->
      a := (!a + Char.code c) mod 65521;
      b := (!b + !a) mod 65521)
    s;
  (!b lsl 16) lor !a

let seal ~tag body =
  Printf.sprintf "%s%s-end %d %d\n" body tag (String.length body) (adler32 body)

let unseal ~tag blob =
  let len = String.length blob in
  if len = 0 then Error "empty file"
  else if blob.[len - 1] <> '\n' then Error "truncated (no final newline)"
  else
    let start =
      match String.rindex_from_opt blob (len - 2) '\n' with Some i -> i + 1 | None -> 0
    in
    let trailer = String.sub blob start (len - 1 - start) in
    let body = String.sub blob 0 start in
    let prefix = tag ^ "-end" in
    let declared =
      if not (String.starts_with ~prefix trailer) then None
      else
        let n = String.length prefix in
        try
          Scanf.sscanf (String.sub trailer n (String.length trailer - n)) " %d %d%!"
            (fun l s -> Some (l, s))
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
    in
    match declared with
    | None -> Error (Printf.sprintf "missing %s trailer (truncated or foreign)" prefix)
    | Some (declared_len, _) when declared_len <> start ->
        Error
          (Printf.sprintf "truncated: %d body bytes, trailer declares %d" start declared_len)
    | Some (_, declared_sum) ->
        let sum = adler32 body in
        if sum <> declared_sum then
          Error
            (Printf.sprintf "checksum mismatch: %#x, trailer declares %#x" sum declared_sum)
        else Ok body
