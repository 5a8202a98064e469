(* Two running sums mod 65521, reduced once per block: 5552 bytes is
   zlib's NMAX, the longest run whose sums stay below 2^32 unreduced,
   well inside a 63-bit int. *)
let adler32_range s ~pos ~stop =
  let a = ref 1 and b = ref 0 and i = ref pos in
  while !i < stop do
    let block_stop = min stop (!i + 5552) in
    for j = !i to block_stop - 1 do
      a := !a + Char.code (String.unsafe_get s j);
      b := !b + !a
    done;
    a := !a mod 65521;
    b := !b mod 65521;
    i := block_stop
  done;
  (!b lsl 16) lor !a

let adler32 s = adler32_range s ~pos:0 ~stop:(String.length s)

let seal ~tag body =
  Printf.sprintf "%s%s-end %d %d\n" body tag (String.length body) (adler32 body)

let unseal ~tag s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Checksum.unseal";
  let stop = pos + len in
  if len = 0 then Error "empty file"
  else if s.[stop - 1] <> '\n' then Error "truncated (no final newline)"
  else
    (* The trailer is the last line: it starts after the last '\n'
       before the final one, or at [pos]. *)
    let start =
      let i = ref (stop - 2) in
      while !i >= pos && String.unsafe_get s !i <> '\n' do
        decr i
      done;
      !i + 1
    in
    let body_len = start - pos in
    let trailer = String.sub s start (stop - 1 - start) in
    let prefix = tag ^ "-end" in
    let declared =
      if not (String.starts_with ~prefix trailer) then None
      else
        let n = String.length prefix in
        try
          Scanf.sscanf (String.sub trailer n (String.length trailer - n)) " %d %d%!"
            (fun l sum -> Some (l, sum))
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> None
    in
    match declared with
    | None -> Error (Printf.sprintf "missing %s trailer (truncated or foreign)" prefix)
    | Some (declared_len, _) when declared_len <> body_len ->
        Error
          (Printf.sprintf "truncated: %d body bytes, trailer declares %d" body_len declared_len)
    | Some (_, declared_sum) ->
        let sum = adler32_range s ~pos ~stop:start in
        if sum <> declared_sum then
          Error
            (Printf.sprintf "checksum mismatch: %#x, trailer declares %#x" sum declared_sum)
        else Ok body_len
