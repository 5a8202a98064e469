(* Content-addressed, append-only entry files.

   Layout (esy build-store style: immutable keyed artifacts):

     <dir>/<2-hex shard>/<digest>          one file per entry
     <dir>/quarantine/<digest>[.N]         entries that failed validation

   digest = MD5(key) + "-" + Adler-32(key) + "-" + length(key): the
   stronger hash names the file, and the Adler-32 + length discipline
   the trace/wire formats already use rides along so a digest collision
   would need to defeat all three at once.

   Entry file bytes:

     fuzzystore <format> <key_len> <payload_len>\n
     <key bytes>\n
     <payload bytes>\n
     fuzzystore-end <body_len> <adler32>\n

   The trailer declares the length and Adler-32 of everything before it
   (Stats.Checksum, the trailer Trace_io v2 archives carry too), and the embedded key must byte-match the
   requested key, so a truncated, bit-flipped or hash-colliding file is
   detected before any payload byte is interpreted.  Invalid entries are
   never errors: they quarantine and read as misses, because the caller
   can always recompute.  Writes go to a temp file renamed into place, so
   a crash mid-write can never leave a half-entry at a live path. *)

type counters = {
  hits : int;
  misses : int;
  writes : int;
  corrupt : int;
}

type t = {
  dir : string;
  mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
  mutable corrupt : int;
}

type stats = {
  entries : int;
  bytes : int;
  quarantined : int;
}

let digest_of_key key =
  Printf.sprintf "%s-%08x-%x" (Digest.to_hex (Digest.string key))
    (Stats.Checksum.adler32 key) (String.length key)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_dir ~dir =
  mkdir_p dir;
  { dir; mutex = Mutex.create (); hits = 0; misses = 0; writes = 0; corrupt = 0 }

let shard_of_digest digest = String.sub digest 0 2
let path_of_digest t digest = Filename.concat (Filename.concat t.dir (shard_of_digest digest)) digest
let quarantine_dir t = Filename.concat t.dir "quarantine"

let counters t =
  Mutex.lock t.mutex;
  let c = { hits = t.hits; misses = t.misses; writes = t.writes; corrupt = t.corrupt } in
  Mutex.unlock t.mutex;
  c

let bump t f =
  Mutex.lock t.mutex;
  f t;
  Mutex.unlock t.mutex

(* ------------------------------ framing ----------------------------- *)

let frame ~key ~payload =
  let b = Buffer.create (String.length payload + String.length key + 128) in
  Printf.bprintf b "fuzzystore %d %d %d\n" Version.entry_format (String.length key)
    (String.length payload);
  Buffer.add_string b key;
  Buffer.add_char b '\n';
  Buffer.add_string b payload;
  Buffer.add_char b '\n';
  Stats.Checksum.seal ~tag:"fuzzystore" (Buffer.contents b)

(* Validate a whole entry file; [Error reason] for anything short of a
   byte-exact, checksummed, current-format entry. *)
let unframe content =
  let ( let* ) r f = Result.bind r f in
  let* body = Stats.Checksum.unseal ~tag:"fuzzystore" content in
  let* format, key_len, payload_len, header_len =
    try
      Scanf.sscanf body "fuzzystore %d %d %d\n%n" (fun f k p n -> Ok (f, k, p, n))
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> Error "bad header"
  in
  let* () =
    if format <> Version.entry_format then
      Error (Printf.sprintf "entry format %d, expected %d" format Version.entry_format)
    else Ok ()
  in
  let* () =
    if String.length body <> header_len + key_len + 1 + payload_len + 1 then
      Error "section lengths disagree with body length"
    else Ok ()
  in
  let key = String.sub body header_len key_len in
  let payload = String.sub body (header_len + key_len + 1) payload_len in
  Ok (key, payload)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Move a bad entry out of the live tree.  Never overwrite earlier
   quarantined bytes (they may be evidence); suffix until free.  If even
   that fails, delete — a corrupt entry must not keep costing a read and
   a re-validation on every probe. *)
let quarantine t path =
  (try
     mkdir_p (quarantine_dir t);
     let base = Filename.concat (quarantine_dir t) (Filename.basename path) in
     let rec fresh n =
       let candidate = if n = 0 then base else Printf.sprintf "%s.%d" base n in
       if Sys.file_exists candidate then fresh (n + 1) else candidate
     in
     Sys.rename path (fresh 0)
   with Sys_error _ | Unix.Unix_error (_, _, _) -> (
     try Sys.remove path with Sys_error _ -> ()));
  bump t (fun t -> t.corrupt <- t.corrupt + 1)

(* ------------------------------ access ------------------------------ *)

(* The one entry reader.  [Some (key, payload)] for a byte-exact entry
   whose embedded key [owns] accepts; [None] for a missing file, and
   [None] after quarantining anything else. *)
let read_entry t digest ~owns =
  let path = path_of_digest t digest in
  match read_file path with
  | exception Sys_error _ -> None
  | content -> (
      match unframe content with
      | Ok (key, payload) when owns key -> Some (key, payload)
      | Ok _ | Error _ ->
          quarantine t path;
          None)

let find t ~key =
  (* The full-key comparison backstops the digest: a collision is
     indistinguishable from corruption and is handled the same way. *)
  match read_entry t (digest_of_key key) ~owns:(String.equal key) with
  | Some (_, payload) ->
      bump t (fun t -> t.hits <- t.hits + 1);
      Some payload
  | None ->
      bump t (fun t -> t.misses <- t.misses + 1);
      None

(* A caller decoded the payload of a [find] hit and found it malformed
   (the container checksum passed, the semantic layer did not — format
   drift or an encoder bug).  Same outcome as container corruption:
   quarantine and count. *)
let reject t ~key =
  let path = path_of_digest t (digest_of_key key) in
  if Sys.file_exists path then quarantine t path

let put t ~key payload =
  let digest = digest_of_key key in
  let path = path_of_digest t digest in
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    let tmp = Filename.temp_file ~temp_dir:t.dir ".fuzzystore" ".tmp" in
    (try
       let oc = open_out_bin tmp in
       Fun.protect
         ~finally:(fun () -> close_out oc)
         (fun () -> output_string oc (frame ~key ~payload));
       Sys.rename tmp path
     with (Sys_error _ | Unix.Unix_error (_, _, _)) as e ->
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    bump t (fun t -> t.writes <- t.writes + 1)
  end

(* ------------------------------ walking ----------------------------- *)

let is_shard name = String.length name = 2 && String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) name

let sorted_dir path =
  match Sys.readdir path with
  | entries ->
      Array.sort compare entries;
      Array.to_list entries
  | exception Sys_error _ -> []

(* Digests of live entries in deterministic (shard, digest) order. *)
let digests t =
  List.concat_map
    (fun shard ->
      if is_shard shard then
        List.filter
          (fun d -> String.length d > 2 && shard_of_digest d = shard)
          (sorted_dir (Filename.concat t.dir shard))
      else [])
    (sorted_dir t.dir)

(* Entry files are named by the digest of the key they embed. *)
let owned_by digest key = digest_of_key key = digest

(* Fold validated entries in digest order; invalid ones quarantine and
   are skipped, exactly as [find] would treat them. *)
let fold t ~init ~f =
  List.fold_left
    (fun acc digest ->
      match read_entry t digest ~owns:(owned_by digest) with
      | Some (key, payload) -> f acc ~key ~payload
      | None -> acc)
    init (digests t)

let verify t =
  let ok, bad =
    List.fold_left
      (fun (ok, bad) digest ->
        match read_entry t digest ~owns:(owned_by digest) with
        | Some _ -> (ok + 1, bad)
        | None -> (ok, digest :: bad))
      (0, []) (digests t)
  in
  (ok, List.rev bad)

let stats t =
  let entries, bytes =
    List.fold_left
      (fun (n, bytes) digest ->
        match Unix.stat (path_of_digest t digest) with
        | st -> (n + 1, bytes + st.Unix.st_size)
        | exception Unix.Unix_error (_, _, _) -> (n, bytes))
      (0, 0) (digests t)
  in
  let quarantined =
    List.length (List.filter (fun q -> q <> "." && q <> "..") (sorted_dir (quarantine_dir t)))
  in
  { entries; bytes; quarantined }

(* LRU-by-atime eviction.  atime is the best available "last useful"
   signal (relatime mounts still advance it when the entry is read after
   a write, and a never-read entry keeps its creation time); ties — and
   filesystems that pin atime entirely — fall back to the digest order,
   which is deterministic.  Entries are evicted oldest-first until both
   budgets hold. *)
let gc t ?max_entries ?max_bytes () =
  let entries =
    List.filter_map
      (fun digest ->
        match Unix.stat (path_of_digest t digest) with
        | st -> Some (digest, st.Unix.st_atime, st.Unix.st_size)
        | exception Unix.Unix_error (_, _, _) -> None)
      (digests t)
  in
  let order (d1, a1, _) (d2, a2, _) =
    match compare (a1 : float) a2 with 0 -> compare (d1 : string) d2 | c -> c
  in
  let by_age = List.sort order entries in
  let total_bytes = List.fold_left (fun acc (_, _, sz) -> acc + sz) 0 entries in
  let over_entries n = match max_entries with Some m -> n > m | None -> false in
  let over_bytes b = match max_bytes with Some m -> b > m | None -> false in
  let rec evict acc n bytes = function
    | (digest, _, sz) :: rest when over_entries n || over_bytes bytes ->
        (try Sys.remove (path_of_digest t digest) with Sys_error _ -> ());
        evict (digest :: acc) (n - 1) (bytes - sz) rest
    | _ -> List.rev acc
  in
  evict [] (List.length entries) total_bytes by_age
