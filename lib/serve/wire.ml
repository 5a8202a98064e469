(* Frame layout (all integers big-endian):
     bytes 0-3    magic "FZRP"
     bytes 4-5    version (u16)
     bytes 6-9    payload length (u32)
     bytes 10-13  Adler-32 of the payload (u32)
     bytes 14..   payload
   Fixed-width integers and IEEE bit patterns keep encoding a pure
   function of the value, so identical messages are identical bytes. *)

let magic = "FZRP"

(* v2: Stats_snapshot grew the four store.* counters.
   v3: Stats_snapshot grew the shard and admission counters, and error
   codes 6 (rate_limited) / 7 (too_large) joined the vocabulary.  The
   version lives in every frame header, so an old peer rejects newer
   frames outright instead of misparsing the longer snapshot. *)
let version = 3
let header_len = 14
let default_max_payload = 16 * 1024 * 1024

type error =
  | Bad_magic
  | Bad_version of int
  | Oversized of int
  | Bad_checksum
  | Truncated

let error_to_string = function
  | Bad_magic -> "bad magic (not a FZRP frame)"
  | Bad_version v -> Printf.sprintf "protocol version %d (expected %d)" v version
  | Oversized n -> Printf.sprintf "declared payload of %d bytes exceeds the cap" n
  | Bad_checksum -> "payload checksum mismatch"
  | Truncated -> "truncated frame"

let put_u16 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let put_u32 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let get_u16 s off = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1]

let get_u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let encode payload =
  let buf = Buffer.create (header_len + String.length payload) in
  Buffer.add_string buf magic;
  put_u16 buf version;
  put_u32 buf (String.length payload);
  put_u32 buf (Stats.Checksum.adler32 payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let decode_header ?(max_payload = default_max_payload) bytes =
  if String.length bytes < header_len then Error Truncated
  else if String.sub bytes 0 4 <> magic then Error Bad_magic
  else
    let v = get_u16 bytes 4 in
    if v <> version then Error (Bad_version v)
    else
      let len = get_u32 bytes 6 in
      if len > max_payload then Error (Oversized len)
      else Ok (len, get_u32 bytes 10)

let check_payload payload ~checksum = Stats.Checksum.adler32 payload = checksum

(* ------------------------- blocking transport ----------------------- *)

let write_all fd s =
  let rec go off =
    if off < String.length s then
      match Unix.write_substring fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let write_frame fd payload = write_all fd (encode payload)

(* Read exactly [n] bytes; [None] on EOF before the first byte, Truncated
   via the caller if EOF strikes mid-read. *)
let read_exactly fd n =
  let b = Bytes.create n in
  let off = ref 0 in
  let eof = ref false in
  while (not !eof) && !off < n do
    let r = Unix.read fd b !off (n - !off) in
    if r = 0 then eof := true else off := !off + r
  done;
  if !eof then None else Some (Bytes.to_string b)

let read_frame ?max_payload fd =
  match read_exactly fd header_len with
  | None -> Error Truncated
  | Some header -> (
      match decode_header ?max_payload header with
      | Error _ as e -> e
      | Ok (len, checksum) -> (
          let payload = if len = 0 then Some "" else read_exactly fd len in
          match payload with
          | None -> Error Truncated
          | Some payload ->
              if check_payload payload ~checksum then Ok payload else Error Bad_checksum))

(* --------------------------- primitive codec ------------------------ *)

exception Decode_error of string

module Enc = struct
  type t = Buffer.t

  let create () = Buffer.create 256
  let u8 t v = Buffer.add_char t (Char.chr (v land 0xff))

  let int t v =
    let v64 = Int64.of_int v in
    for i = 7 downto 0 do
      Buffer.add_char t
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v64 (8 * i)) 0xFFL)))
    done

  (* Written from the Int64 bit pattern directly: OCaml ints are 63-bit,
     so going through [int] would lose the sign bit of the double. *)
  let float t v =
    let bits = Int64.bits_of_float v in
    for i = 7 downto 0 do
      Buffer.add_char t
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xFFL)))
    done

  let string t s =
    int t (String.length s);
    Buffer.add_string t s

  let list t f xs =
    int t (List.length xs);
    List.iter (f t) xs

  let contents = Buffer.contents
end

module Dec = struct
  type t = { src : string; mutable pos : int }

  let of_string src = { src; pos = 0 }

  (* Bounds checks compare against the *remaining* byte count rather
     than computing [t.pos + n]: a hostile 8-byte length near max_int
     would make that sum wrap negative and slip past the guard. *)
  let remaining t = String.length t.src - t.pos

  let take t n =
    if n < 0 || n > remaining t then
      raise (Decode_error (Printf.sprintf "short read at byte %d" t.pos));
    let s = String.sub t.src t.pos n in
    t.pos <- t.pos + n;
    s

  let u8 t = Char.code (take t 1).[0]

  let int64 t =
    let s = take t 8 in
    let v = ref 0L in
    String.iter (fun c -> v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code c))) s;
    !v

  let int t = Int64.to_int (int64 t)
  let float t = Int64.float_of_bits (int64 t)

  let string t =
    let n = int t in
    if n < 0 || n > remaining t then
      raise (Decode_error (Printf.sprintf "bad string length %d at byte %d" n t.pos));
    take t n

  let list t f =
    let n = int t in
    (* Every element decoder consumes at least one byte, so a count
       beyond the remaining bytes is corrupt — reject it before
       [List.init] commits to materialising it. *)
    if n < 0 || n > remaining t then
      raise (Decode_error (Printf.sprintf "bad list length %d" n));
    List.init n (fun _ -> f t)

  let expect_end t =
    if t.pos <> String.length t.src then
      raise
        (Decode_error
           (Printf.sprintf "%d trailing byte(s) after message" (String.length t.src - t.pos)))
end
