(* The ready set is exposed as a membership query (not an event list) so
   the caller's iteration order — sessions in connection-id order — is
   the only order that exists.  [Unix.select] releases the domain lock
   while it waits, so a shard parked here never stalls another domain's
   stop-the-world GC. *)

type t = {
  ready : (Unix.file_descr, unit) Hashtbl.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

let create () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  { ready = Hashtbl.create 64; wake_r; wake_w }

(* [Unix.select] checks every descriptor against FD_SETSIZE before the
   system call and raises EINVAL for one past it; with a zero timeout the
   probe of an accepted descriptor returns at once. *)
let watchable fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | _ -> true
  | exception Unix.Unix_error (_, _, _) -> false

let drain_wake t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r buf 0 (Bytes.length buf) with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let wait t ~read ~write ~timeout_ms =
  Hashtbl.reset t.ready;
  let timeout = if timeout_ms < 0 then -1.0 else float_of_int timeout_ms /. 1000.0 in
  match Unix.select (t.wake_r :: read) write [] timeout with
  | readable, _, _ ->
      List.iter
        (fun fd -> if fd = t.wake_r then drain_wake t else Hashtbl.replace t.ready fd ())
        readable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let readable t fd = Hashtbl.mem t.ready fd

let wake t =
  (* A full pipe already guarantees a pending wakeup; errors here are
     benign by construction. *)
  try ignore (Unix.write_substring t.wake_w "w" 0 1)
  with Unix.Unix_error (_, _, _) -> ()

let close t =
  let quietly fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> () in
  quietly t.wake_r;
  quietly t.wake_w
