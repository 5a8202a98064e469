(* The ready sets are exposed as membership queries (not an event list)
   so the caller's iteration order — sessions sorted by connection id —
   is the only order that exists.  [Unix.select] releases the domain lock
   while it waits, so a shard parked here never stalls another domain's
   stop-the-world GC. *)

type interest = { mutable want_read : bool; mutable want_write : bool }

type t = {
  fds : (Unix.file_descr, interest) Hashtbl.t;
  ready_read : (Unix.file_descr, unit) Hashtbl.t;
  ready_write : (Unix.file_descr, unit) Hashtbl.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable woken : bool;
}

let create () =
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    fds = Hashtbl.create 64;
    ready_read = Hashtbl.create 64;
    ready_write = Hashtbl.create 64;
    wake_r;
    wake_w;
    woken = false;
  }

(* [Unix.select] checks every descriptor against FD_SETSIZE before the
   system call and raises EINVAL for one past it; with a zero timeout the
   probe of an accepted descriptor returns at once. *)
let watchable fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | _ -> true
  | exception Unix.Unix_error (_, _, _) -> false

let add t fd ~read ~write =
  if not (watchable fd) then raise (Unix.Unix_error (Unix.EINVAL, "Evloop.add", ""));
  Hashtbl.replace t.fds fd { want_read = read; want_write = write }

let modify t fd ~read ~write =
  match Hashtbl.find_opt t.fds fd with
  | None -> add t fd ~read ~write
  | Some i ->
      i.want_read <- read;
      i.want_write <- write

let remove t fd = Hashtbl.remove t.fds fd

let drain_wake t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r buf 0 (Bytes.length buf) with
    | 0 -> ()
    | _ ->
        t.woken <- true;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let wait t ~timeout_ms =
  Hashtbl.reset t.ready_read;
  Hashtbl.reset t.ready_write;
  t.woken <- false;
  (* Sorted enumeration (Stats.Det): the fd_set argument order is then a
     pure function of the watched set, like everything else here. *)
  let watched = Stats.Det.hashtbl_bindings t.fds in
  let rs =
    t.wake_r
    :: List.filter_map (fun (fd, i) -> if i.want_read then Some fd else None) watched
  in
  let ws = List.filter_map (fun (fd, i) -> if i.want_write then Some fd else None) watched in
  let timeout = if timeout_ms < 0 then -1.0 else float_of_int timeout_ms /. 1000.0 in
  match Unix.select rs ws [] timeout with
  | readable, writable, _ ->
      List.iter
        (fun fd ->
          if fd = t.wake_r then drain_wake t else Hashtbl.replace t.ready_read fd ())
        readable;
      List.iter (fun fd -> Hashtbl.replace t.ready_write fd ()) writable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let readable t fd = Hashtbl.mem t.ready_read fd
let writable t fd = Hashtbl.mem t.ready_write fd
let woken t = t.woken

let wake t =
  (* A full pipe already guarantees a pending wakeup; errors here are
     benign by construction. *)
  try ignore (Unix.write_substring t.wake_w "w" 0 1)
  with Unix.Unix_error (_, _, _) -> ()

let close t =
  let quietly fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> () in
  quietly t.wake_r;
  quietly t.wake_w
