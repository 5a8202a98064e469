(* One record per live connection.  The input side is a byte accumulator
   the frame decoder chews from the front; the output side is a seq ->
   frame table drained strictly in order. *)

type t = {
  id : int;
  fd : Unix.file_descr;
  peer : string;  (* admission identity: client IP, or "conn:<id>" *)
  mutable inbuf : Bytes.t;
  mutable in_len : int;
  mutable next_seq : int;  (* next sequence number to assign *)
  mutable next_out : int;  (* next sequence number to write *)
  mutable out_off : int;  (* bytes of the current frame already written *)
  ready : (int, string) Hashtbl.t;  (* seq -> encoded frame *)
  mutable pipeline : Online.Pipeline.t option;
  mutable closing : bool;
  mutable eof : bool;  (* the peer sent EOF *)
}

let create ~id ~peer fd =
  {
    id;
    fd;
    peer;
    inbuf = Bytes.create 4096;
    in_len = 0;
    next_seq = 0;
    next_out = 0;
    out_off = 0;
    ready = Hashtbl.create 8;
    pipeline = None;
    closing = false;
    eof = false;
  }

let id t = t.id
let fd t = t.fd
let peer t = t.peer

let feed t src n =
  if not t.closing then begin
    let need = t.in_len + n in
    if need > Bytes.length t.inbuf then begin
      let grown = Bytes.create (max need (2 * Bytes.length t.inbuf)) in
      Bytes.blit t.inbuf 0 grown 0 t.in_len;
      t.inbuf <- grown
    end;
    Bytes.blit src 0 t.inbuf t.in_len n;
    t.in_len <- t.in_len + n
  end

let input t = (t.inbuf, t.in_len)

let consume t n =
  Bytes.blit t.inbuf n t.inbuf 0 (t.in_len - n);
  t.in_len <- t.in_len - n

let next_frame t ~max_payload =
  if t.in_len < Wire.header_len then Ok None
  else
    let header = Bytes.sub_string t.inbuf 0 Wire.header_len in
    match Wire.decode_header ~max_payload header with
    | Error _ as e -> e
    | Ok (len, checksum) ->
        if t.in_len < Wire.header_len + len then Ok None
        else
          let payload = Bytes.sub_string t.inbuf Wire.header_len len in
          if Wire.check_payload payload ~checksum then begin
            consume t (Wire.header_len + len);
            Ok (Some payload)
          end
          else Error Wire.Bad_checksum

let alloc_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let put_response t ~seq frame = Hashtbl.replace t.ready seq frame

let next_write t =
  Option.map (fun frame -> (frame, t.out_off)) (Hashtbl.find_opt t.ready t.next_out)

let advance t n =
  match Hashtbl.find_opt t.ready t.next_out with
  | None -> ()
  | Some frame ->
      t.out_off <- t.out_off + n;
      if t.out_off >= String.length frame then begin
        Hashtbl.remove t.ready t.next_out;
        t.next_out <- t.next_out + 1;
        t.out_off <- 0
      end

let has_pending t = t.next_out < t.next_seq
let has_output t = Hashtbl.mem t.ready t.next_out
let pipeline t = t.pipeline
let open_pipeline t p = t.pipeline <- Some p
let close_pipeline t = t.pipeline <- None
let mark_close t = t.closing <- true
let closing t = t.closing

let mark_eof t =
  t.eof <- true;
  t.closing <- true

let eof t = t.eof
