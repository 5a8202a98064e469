type address = Unix_socket of string | Tcp of int

type config = {
  analysis : Fuzzy.Analysis.config;
  queue_capacity : int;
  max_connections : int;
  request_timeout : float option;
  io_shards : int;
  admission : Admission.config;
  metrics_port : int option;
      (* loopback TCP port for the HTTP /metrics + /health endpoint
         (0 = OS-assigned, reported via on_event); None = no endpoint *)
}

let config_of_analysis analysis =
  {
    analysis;
    queue_capacity = 64;
    max_connections = 32;
    request_timeout = None;
    io_shards = 1;
    admission = Admission.off;
    metrics_port = None;
  }

(* listen(2) backlog of the RPC socket; the kernel clamps it to its own
   limit. *)
let rpc_backlog = 128

let describe_address = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp port -> Printf.sprintf "tcp:127.0.0.1:%d" port

(* One queued-or-batched heavy request.  [key] is the encoded request —
   two requests with equal bytes are the same work, so later arrivals
   join [subscribers] instead of queueing a second copy. *)
type pending = {
  key : string;
  kind : string;  (* request verb, for the latency histogram *)
  work : unit -> Protocol.response;
  mutable subscribers : (int * int * float) list;
      (* (connection id, seq, arrival time) — the arrival stamp feeds the
         latency histogram when the shared response is routed out *)
  deadline : float option;
  mutable cancelled : bool;
}

module Int_map = Map.Make (Int)

(* One accept/IO domain.  A shard owns its sessions, kept in id order,
   its evloop and its read buffer outright; everything cross-shard
   arrives through [inbox]. *)
type shard = {
  idx : int;
  ev : Evloop.t;
  mutable sessions : Session.t Int_map.t;
  buf : Bytes.t;  (* every read lands here; [Session.feed] copies it out *)
  inbox : message Queue.t;
  inbox_mutex : Mutex.t;
}

and message =
  | Accepted of { id : int; fd : Unix.file_descr; peer : string }
  | Deliver of { conn : int; seq : int; frame : string; code : string option }
      (* a routed heavy-request response; [code] is the error code for
         the metrics count (None = ok), applied only if the subscriber
         is still connected *)

let close_quietly fd =
  try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let listen_socket address ~backlog =
  let fd =
    match address with
    | Unix_socket path ->
        (match Unix.lstat path with
        | { Unix.st_kind = Unix.S_SOCK; _ } ->
            (* A previous server died without cleaning up; the bind below
               would fail on the stale node. *)
            Unix.unlink path
        | _ -> ()
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd backlog;
        fd
    | Tcp port ->
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.listen fd backlog;
        fd
  in
  (* Non-blocking so the accept shard can drain the whole backlog per
     readiness event and stop cleanly on EAGAIN. *)
  Unix.set_nonblock fd;
  fd

let run ?(on_event = fun _ -> ()) cfg address =
  let metrics = Metrics.create () in
  let nshards = max 1 cfg.io_shards in
  Metrics.set_io_shards metrics nshards;
  let pipeline = { Online.Pipeline.default with analysis = cfg.analysis } in
  let admission = Admission.create cfg.admission in
  let sync_store_counters () =
    match Store.Result_cache.counters () with
    | Some c ->
        Metrics.set_store metrics ~hits:c.Store.Cas.hits ~misses:c.Store.Cas.misses
          ~writes:c.Store.Cas.writes ~corrupt:c.Store.Cas.corrupt
    | None -> ()
  in
  let sync_admission_counters () =
    let c = Admission.counters admission in
    Metrics.set_admission metrics ~admitted:c.Admission.admitted
      ~rate_limited:c.Admission.rate_limited ~too_large:c.Admission.too_large
      ~breaker_rejected:c.Admission.breaker_rejected
      ~breaker_trips:c.Admission.breaker_trips
  in
  let pool = Fuzzy.Analysis.pool cfg.analysis in
  let max_inflight = Parallel.Pool.jobs pool in

  (* ---- state shared across shards, guarded by [core] -------------- *)
  (* Lock order: core may be held while posting to an inbox or waking an
     evloop, never the other way around.  Pool.submit is never called
     with core held: at jobs=1 the task runs inline in submit, and the
     task body itself needs core. *)
  let core = Mutex.create () in
  let locked f =
    Mutex.lock core;
    match f () with
    | v ->
        Mutex.unlock core;
        v
    | exception e ->
        Mutex.unlock core;
        raise e
  in
  let by_key : (string, pending) Hashtbl.t = Hashtbl.create 16 in
  let waiting : pending Queue.t = Queue.create () in
  let waiting_count = ref 0 in
  let inflight = ref 0 in
  let active = ref 0 in
  (* peer -> live connections with that identity; the admission state for
     a peer is forgotten when its last connection closes. *)
  let peer_refs : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let draining = Atomic.make false in

  let shards =
    Array.init nshards (fun idx ->
        {
          idx;
          ev = Evloop.create ();
          sessions = Int_map.empty;
          buf = Bytes.create 65536;
          inbox = Queue.create ();
          inbox_mutex = Mutex.create ();
        })
  in
  let shard_of_conn id =
    if nshards = 1 then 0 else id * 0x9E3779B1 land max_int mod nshards
  in
  let post sh msg =
    Mutex.lock sh.inbox_mutex;
    Queue.push msg sh.inbox;
    Mutex.unlock sh.inbox_mutex;
    Evloop.wake sh.ev
  in

  let stop_signal _ = Atomic.set draining true in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle stop_signal) in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle stop_signal) in
  let listen_fd = listen_socket address ~backlog:rpc_backlog in
  on_event
    (Printf.sprintf "listening on %s (jobs=%d, io-shards=%d, queue=%d, max-conns=%d)"
       (describe_address address) cfg.analysis.Fuzzy.Analysis.jobs nshards
       cfg.queue_capacity cfg.max_connections);

  (* ---- HTTP metrics endpoint (owned by shard 0) ------------------- *)
  let metrics_listen =
    match cfg.metrics_port with
    | None -> None
    | Some port ->
        let fd = listen_socket (Tcp port) ~backlog:16 in
        let bound =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> p
          | Unix.ADDR_UNIX _ -> port
        in
        (* Scripts and tests discover an OS-assigned port from this line. *)
        on_event
          (Printf.sprintf "metrics listening on http://127.0.0.1:%d/metrics"
             bound);
        Some fd
  in
  let exposition () =
    let snapshot, latency, queue_depth, inflight_now =
      locked (fun () ->
          sync_store_counters ();
          sync_admission_counters ();
          ( Metrics.snapshot metrics,
            Metrics.latency metrics,
            !waiting_count,
            !inflight ))
    in
    Exposition.render ~snapshot ~latency ~queue_depth ~inflight:inflight_now
      ~draining:(Atomic.get draining)
  in
  let http_response (r : Metrics_http.Http.request) =
    match (r.meth, r.path) with
    | "GET", "/metrics" -> (
        match exposition () with
        | body ->
            Metrics_http.Http.response ~status:200
              ~content_type:Metrics_http.Http.exposition_content_type body
        | exception Invalid_argument m ->
            (* A malformed family is a bug in Exposition; surface it to the
               scraper instead of killing the shard. *)
            Metrics_http.Http.response ~status:500 ("exposition error: " ^ m ^ "\n"))
    | "GET", "/health" ->
        (* Readiness: accepting work = 200; once draining starts the
           endpoint keeps answering — with 503 — until the drain ends. *)
        if Atomic.get draining then
          Metrics_http.Http.response ~status:503 "draining\n"
        else Metrics_http.Http.response ~status:200 "ok\n"
    | "GET", _ -> Metrics_http.Http.response ~status:404 "not found\n"
    | _, _ -> Metrics_http.Http.response ~status:405 "method not allowed\n"
  in
  (* A scrape is a session on shard 0 with a negative id.  Scrape ids
     come from their own range, so RPC connection ids — and with them
     shard placement and "conn:<id>" admission identities — never depend
     on scrape traffic; scrapes are neither counted nor admitted. *)
  let is_scrape sess = Session.id sess < 0 in
  (* HTTP/1.0: once the head has arrived, queue the one response and
     close after it. *)
  let answer_scrape sess =
    let reply response =
      Session.put_response sess ~seq:(Session.alloc_seq sess) response;
      Session.mark_close sess
    in
    if not (Session.closing sess) then
      let head, len = Session.input sess in
      match Metrics_http.Http.parse_request head len with
      | Metrics_http.Http.Incomplete -> ()
      | Metrics_http.Http.Bad m ->
          reply (Metrics_http.Http.response ~status:400 (m ^ "\n"))
      | Metrics_http.Http.Request r -> reply (http_response r)
  in

  (* Called only from [sh]'s own thread. *)
  let drop_session sh sess =
    sh.sessions <- Int_map.remove (Session.id sess) sh.sessions;
    close_quietly (Session.fd sess);
    if not (is_scrape sess) then
      locked (fun () ->
          decr active;
          Metrics.set_active metrics !active;
          let peer = Session.peer sess in
          match Hashtbl.find_opt peer_refs peer with
          | None -> ()
          | Some 1 ->
              Hashtbl.remove peer_refs peer;
              Admission.forget admission ~peer
          | Some n -> Hashtbl.replace peer_refs peer (n - 1))
  in
  let code_of = function
    | Protocol.Error { code; _ } -> Some (Protocol.error_code_to_string code)
    | Protocol.Report _ | Protocol.Quadrant_verdict _ | Protocol.Curve _
    | Protocol.Verdicts _ | Protocol.Ingest_ack _ | Protocol.Ingest_final _
    | Protocol.Stats_snapshot _ | Protocol.Health_ok _ | Protocol.Shutdown_ack
      ->
        None
  in
  let count_code = function
    | None -> Metrics.incr_ok metrics
    | Some code -> Metrics.incr_error metrics ~code
  in
  (* Inline (non-pooled) response on the owning shard's thread.
     [timing] is the (verb, arrival time) pair for requests that were
     counted by incr_request; undecodable frames pass no timing and
     observe nothing, so at quiescence each verb's histogram count
     equals its requests_by_kind counter. *)
  let respond ?timing sess seq resp =
    locked (fun () ->
        count_code (code_of resp);
        match timing with
        | None -> ()
        | Some (kind, t0) ->
            Metrics.observe_latency metrics ~kind ~seconds:(Clock.now () -. t0));
    Session.put_response sess ~seq (Wire.encode (Protocol.encode_response resp))
  in
  (* Land one routed heavy-request response on [sh]'s own session table.
     Any delivery — including Failed — is a backend outcome for the
     breaker; only Timeout counts as shed. *)
  let apply_delivery sh ~conn ~seq ~frame ~code =
    match Int_map.find_opt conn sh.sessions with
    | None -> ()  (* subscriber hung up while the work ran *)
    | Some sess ->
        locked (fun () ->
            count_code code;
            Admission.record admission ~peer:(Session.peer sess)
              ~shed:(code = Some "timeout"));
        Session.put_response sess ~seq frame
  in
  (* The one way finished work reaches its subscribers: each gets the
     response's frame, encoded once by the caller, in its owner shard's
     inbox.  Runs under [core], in the critical section that took [p] out
     of [by_key], so no subscriber can join after the fan-out.  Latency
     is observed when the response is produced (here), not when each
     subscriber's bytes hit its socket: one observation per counted
     request, even if a subscriber hung up while the work ran. *)
  let deliver p (frame, code) =
    let now = Clock.now () in
    List.iter
      (fun (_, _, t0) ->
        Metrics.observe_latency metrics ~kind:p.kind ~seconds:(now -. t0))
      p.subscribers;
    List.iter
      (fun (conn, seq, _) ->
        post shards.(shard_of_conn conn) (Deliver { conn; seq; frame; code }))
      (List.rev p.subscribers)
  in
  let encoded resp = (Wire.encode (Protocol.encode_response resp), code_of resp) in
  let work_for req name () =
    match req with
    | Protocol.Analyze _ ->
        Protocol.Report
          (Fuzzy.Report.analyze_report
             (Fuzzy.Experiments.analyze_cached cfg.analysis name))
    | Protocol.Quadrant _ ->
        Protocol.quadrant_verdict name (Fuzzy.Experiments.analyze_cached cfg.analysis name)
    | Protocol.Re_curve _ ->
        let a = Fuzzy.Experiments.analyze_cached cfg.analysis name in
        Protocol.Curve { workload = name; curve = a.Fuzzy.Analysis.curve }
    | Protocol.Ingest_open _ | Protocol.Ingest_feed _ | Protocol.Ingest_finalize
    | Protocol.Stats | Protocol.Health | Protocol.Shutdown ->
        (* Never queued: these are handled inline at parse time. *)
        Protocol.Error { code = Protocol.Failed; message = "not a pooled request" }
  in
  let enqueue_heavy sess seq req name ~nbytes ~kind ~t0 =
    let respond sess seq resp = respond ~timing:(kind, t0) sess seq resp in
    match Workload.Catalog.find name with
    | exception Not_found ->
        respond sess seq
          (Protocol.Error
             {
               code = Protocol.Unknown_workload;
               message = Printf.sprintf "unknown workload %S" name;
             })
    | _entry -> (
        if Atomic.get draining then
          respond sess seq
            (Protocol.Error
               { code = Protocol.Overloaded; message = "server is draining" })
        else
          let peer = Session.peer sess in
          (* Admission runs before the batching join: a batched arrival
             still spends a token, so the admit/reject sequence is a pure
             function of the peer's own trace. *)
          let decision =
            locked (fun () -> Admission.check admission ~peer ~bytes:nbytes)
          in
          match decision with
          | Admission.Reject_too_large ->
              respond sess seq
                (Protocol.Error
                   {
                     code = Protocol.Too_large;
                     message =
                       Printf.sprintf
                         "request of %d bytes exceeds the admission budget"
                         nbytes;
                   })
          | Admission.Reject_rate_limited ->
              respond sess seq
                (Protocol.Error
                   {
                     code = Protocol.Rate_limited;
                     message = "rate limit exceeded for this peer";
                   })
          | Admission.Reject_breaker_open ->
              respond sess seq
                (Protocol.Error
                   {
                     code = Protocol.Overloaded;
                     message = "circuit breaker open for this peer";
                   })
          | Admission.Admit -> (
              let key = Protocol.encode_request req in
              let verdict =
                locked (fun () ->
                    match Hashtbl.find_opt by_key key with
                    | Some p ->
                        (* Identical request already queued or running:
                           batch. *)
                        Metrics.incr_batch_joined metrics;
                        p.subscribers <-
                          (Session.id sess, seq, t0) :: p.subscribers;
                        `Joined
                    | None ->
                        if !waiting_count >= cfg.queue_capacity then begin
                          (* A shed outcome the breaker must see. *)
                          Admission.record admission ~peer ~shed:true;
                          `Queue_full
                        end
                        else begin
                          if Fuzzy.Experiments.cached cfg.analysis name then
                            Metrics.incr_cache_hit metrics
                          else Metrics.incr_cache_miss metrics;
                          let deadline =
                            Option.map
                              (fun s -> Clock.now () +. s)
                              cfg.request_timeout
                          in
                          let p =
                            {
                              key;
                              kind;
                              work = work_for req name;
                              subscribers = [ (Session.id sess, seq, t0) ];
                              deadline;
                              cancelled = false;
                            }
                          in
                          Hashtbl.replace by_key key p;
                          Queue.push p waiting;
                          incr waiting_count;
                          Metrics.observe_queue_depth metrics !waiting_count;
                          `Queued
                        end)
              in
              match verdict with
              | `Joined | `Queued -> ()
              | `Queue_full ->
                  respond sess seq
                    (Protocol.Error
                       {
                         code = Protocol.Overloaded;
                         message =
                           Printf.sprintf "request queue is full (capacity %d)"
                             cfg.queue_capacity;
                       })))
  in
  let dispatch sess seq req ~nbytes ~kind ~t0 =
    let respond sess seq resp = respond ~timing:(kind, t0) sess seq resp in
    match req with
    | Protocol.Health ->
        respond sess seq
          (Protocol.Health_ok
             {
               version = Wire.version;
               jobs = cfg.analysis.Fuzzy.Analysis.jobs;
               workloads = Array.length Workload.Catalog.all;
             })
    | Protocol.Stats ->
        let snap =
          locked (fun () ->
              sync_store_counters ();
              sync_admission_counters ();
              Metrics.snapshot metrics)
        in
        respond sess seq (Protocol.Stats_snapshot snap)
    | Protocol.Shutdown ->
        Atomic.set draining true;
        on_event "shutdown requested; draining";
        respond sess seq Protocol.Shutdown_ack;
        Session.mark_close sess;
        Array.iter (fun sh -> Evloop.wake sh.ev) shards
    | Protocol.Ingest_open name -> (
        match Session.pipeline sess with
        | Some _ ->
            respond sess seq
              (Protocol.Error
                 {
                   code = Protocol.Failed;
                   message = "an ingest stream is already open on this connection";
                 })
        | None ->
            Session.open_pipeline sess
              (Online.Pipeline.create ~name pipeline);
            respond sess seq (Protocol.Ingest_ack name))
    | Protocol.Ingest_feed samples -> (
        match Session.pipeline sess with
        | None ->
            respond sess seq
              (Protocol.Error
                 {
                   code = Protocol.Failed;
                   message = "no ingest stream open (send ingest_open first)";
                 })
        | Some p ->
            let verdicts =
              List.filter_map
                (fun s ->
                  Option.map
                    (Format.asprintf "%a" Online.Classifier.pp_verdict)
                    (Online.Pipeline.feed p s))
                samples
            in
            respond sess seq (Protocol.Verdicts verdicts))
    | Protocol.Ingest_finalize -> (
        match Session.pipeline sess with
        | None ->
            respond sess seq
              (Protocol.Error
                 { code = Protocol.Failed; message = "no ingest stream open" })
        | Some p ->
            (* [handle]'s boundary answers a failed final fit. *)
            Session.close_pipeline sess;
            let final = Online.Pipeline.finalize p in
            respond sess seq
              (Protocol.Ingest_final (Format.asprintf "%a@." Online.Pipeline.pp_final final)))
    | Protocol.Analyze name | Protocol.Quadrant name | Protocol.Re_curve name
      ->
        enqueue_heavy sess seq req name ~nbytes ~kind ~t0
  in
  (* The exception boundary of the inline request path: anything the
     analysis layers throw for bad input (Ingest_feed has no other net
     under it) becomes a typed protocol Error instead of unwinding through
     the IO loop and killing the connection.  The deep linter (G003) checks
     that every handler-reachable raise is caught here or earlier. *)
  let handle sess req ~nbytes =
    let seq = Session.alloc_seq sess in
    let kind = Protocol.request_kind req in
    let t0 = Clock.now () in
    locked (fun () -> Metrics.incr_request metrics ~kind);
    match dispatch sess seq req ~nbytes ~kind ~t0 with
    | () -> ()
    | exception Failure m ->
        respond ~timing:(kind, t0) sess seq
          (Protocol.Error { code = Protocol.Failed; message = m })
    | exception Invalid_argument m ->
        respond ~timing:(kind, t0) sess seq
          (Protocol.Error { code = Protocol.Failed; message = m })
    | exception Not_found ->
        respond ~timing:(kind, t0) sess seq
          (Protocol.Error
             { code = Protocol.Failed; message = "internal lookup failed" })
    | exception Assert_failure (file, line, _) ->
        respond ~timing:(kind, t0) sess seq
          (Protocol.Error
             {
               code = Protocol.Failed;
               message = Printf.sprintf "internal invariant failed at %s:%d" file line;
             })
  in
  let rec drain_frames sess =
    if not (Session.closing sess) then
      match Session.next_frame sess ~max_payload:Wire.default_max_payload with
      | Ok None -> ()
      | Ok (Some payload) ->
          (match Protocol.decode_request payload with
          | Ok req -> handle sess req ~nbytes:(String.length payload)
          | Error m ->
              let seq = Session.alloc_seq sess in
              respond sess seq
                (Protocol.Error { code = Protocol.Bad_request; message = m }));
          drain_frames sess
      | Error e ->
          (* The byte stream itself is corrupt; answer once and close —
             resynchronising inside garbage is guesswork. *)
          let seq = Session.alloc_seq sess in
          respond sess seq
            (Protocol.Error
               { code = Protocol.Bad_request; message = Wire.error_to_string e });
          Session.mark_close sess
  in
  let read_session sh sess =
    match Unix.read (Session.fd sess) sh.buf 0 (Bytes.length sh.buf) with
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
        ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        drop_session sh sess
    | 0 ->
        (* Peer finished sending; flush anything still owed, then close. *)
        if Session.has_pending sess then Session.mark_eof sess
        else drop_session sh sess
    | n ->
        Session.feed sess sh.buf n;
        if is_scrape sess then answer_scrape sess else drain_frames sess
  in
  let next_conn_id = ref 0 in
  let next_scrape_id = ref (-1) in
  (* Only from [sh]'s own thread: shard 0 for its own connections, the
     others when an [Accepted] message arrives. *)
  let add_session sh id fd peer =
    let sess = Session.create ~id ~peer fd in
    sh.sessions <- Int_map.add id sess sh.sessions;
    sess
  in
  (* Out of descriptors (EMFILE/ENFILE), a listener stays readable with
     nothing it can accept: polling it would spin shard 0.  The listeners
     then sit out one wait, which ends at the next 100 ms tick or sooner
     at a session event (a peer's EOF, whose drop frees a descriptor, is
     one); meanwhile new connections queue in the kernel backlog. *)
  let accept_paused = ref false in
  (* Shard 0 only, for either listener.  One readiness event may announce
     many queued connections: drain the whole accept backlog until
     EAGAIN, handing each connection to [admit]. *)
  let accept_all lfd admit =
    let continue = ref true in
    while !continue do
      match Unix.accept ~cloexec:true lfd with
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
      | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
          accept_paused := true;
          continue := false
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
          ()
      | fd, addr -> admit fd addr
    done
  in
  let admit_rpc fd addr =
    (* Checked before any accounting: a descriptor select cannot watch
       gets the connection-cap answer instead of a session. *)
    let watchable = Evloop.watchable fd in
    let refused =
      locked (fun () ->
          if Atomic.get draining || !active >= cfg.max_connections || not watchable
          then begin
            Metrics.incr_refused metrics;
            true
          end
          else begin
            incr active;
            Metrics.incr_accepted metrics;
            Metrics.set_active metrics !active;
            false
          end)
    in
    if refused then begin
      let message =
        if Atomic.get draining then "server is draining"
        else if not watchable then "connection limit reached (descriptor past FD_SETSIZE)"
        else
          Printf.sprintf "connection limit reached (max %d)" cfg.max_connections
      in
      let refusal =
        Protocol.encode_response (Protocol.Error { code = Protocol.Busy; message })
      in
      (try Wire.write_frame fd refusal with Unix.Unix_error (_, _, _) -> ());
      close_quietly fd
    end
    else begin
      (* Non-blocking: a client that stops reading must never stall a
         shard — flush_session writes only what the socket accepts and
         the evloop waits for writability. *)
      Unix.set_nonblock fd;
      let id = !next_conn_id in
      incr next_conn_id;
      (* TCP peers share an admission identity per address, so one host
         cannot widen its budget by opening connections; local
         Unix-socket peers are indistinguishable and get a
         per-connection identity instead. *)
      let peer =
        match addr with
        | Unix.ADDR_INET (ip, _) -> Unix.string_of_inet_addr ip
        | Unix.ADDR_UNIX _ -> Printf.sprintf "conn:%d" id
      in
      let sh = shards.(shard_of_conn id) in
      locked (fun () ->
          Hashtbl.replace peer_refs peer
            (1 + Option.value ~default:0 (Hashtbl.find_opt peer_refs peer));
          Metrics.incr_shard_accept metrics ~shard:sh.idx);
      if sh.idx = 0 then read_session sh (add_session sh id fd peer)
      else post sh (Accepted { id; fd; peer })
    end
  in
  (* Scrapes are never refused: /health must keep answering (503) for
     the whole drain.  One on a descriptor select cannot watch is only
     closed. *)
  let admit_scrape fd _ =
    if not (Evloop.watchable fd) then close_quietly fd
    else begin
      Unix.set_nonblock fd;
      let id = !next_scrape_id in
      decr next_scrape_id;
      read_session shards.(0) (add_session shards.(0) id fd "scrape")
    end
  in
  let listeners =
    (listen_fd, admit_rpc)
    :: Option.fold ~none:[] ~some:(fun mfd -> [ (mfd, admit_scrape) ]) metrics_listen
  in
  let process_inbox sh =
    let msgs = Queue.create () in
    Mutex.lock sh.inbox_mutex;
    Queue.transfer sh.inbox msgs;
    Mutex.unlock sh.inbox_mutex;
    Queue.iter
      (function
        | Accepted { id; fd; peer } -> ignore (add_session sh id fd peer)
        | Deliver { conn; seq; frame; code } ->
            apply_delivery sh ~conn ~seq ~frame ~code)
      msgs
  in
  let timed_out =
    encoded
      (Protocol.Error
         { code = Protocol.Timeout; message = "deadline exceeded while queued" })
  in
  (* Under [core]: answer a waiting [p] Timeout if its deadline has
     passed.  Every submission asks first, in the critical section that
     pops [p], and shard 0 sweeps the whole queue each pass, so a request
     either times out while waiting or runs to completion — for
     [--timeout 0] that makes the Timeout answer deterministic at every
     jobs and io-shards value. *)
  let expire p =
    let expired = Clock.expired ~deadline:p.deadline in
    if expired then begin
      p.cancelled <- true;
      decr waiting_count;
      Hashtbl.remove by_key p.key;
      deliver p timed_out
    end;
    expired
  in
  let expire_waiting () =
    locked (fun () ->
        Queue.iter (fun p -> if not p.cancelled then ignore (expire p)) waiting)
  in
  let submit p =
    ignore
      (Parallel.Pool.submit pool (fun () ->
           let resp =
             match p.work () with
             | resp -> resp
             | exception Failure m ->
                 Protocol.Error { code = Protocol.Failed; message = m }
             | exception Invalid_argument m ->
                 Protocol.Error { code = Protocol.Failed; message = m }
             | exception Not_found ->
                 Protocol.Error
                   { code = Protocol.Failed; message = "lookup failed" }
             | exception e ->
                 (* Catch-all: every submitted pending must produce exactly
                    one completion, or [inflight] never drains and the
                    subscribers hang forever. *)
                 Protocol.Error
                   { code = Protocol.Failed; message = Printexc.to_string e }
           in
           let frame = encoded resp in
           (* [inflight] drops only after the deliveries are posted, so "no
              inflight work and an empty inbox" really means "nothing can
              still arrive" — the shards' exit condition relies on that. *)
           locked (fun () ->
               Hashtbl.remove by_key p.key;
               deliver p frame;
               decr inflight)))
  in
  let submit_ready () =
    (* Collect under the lock, submit outside it: at jobs=1 the pool runs
       the task inline inside [submit], and the task needs [core]. *)
    let ready =
      locked (fun () ->
          let acc = ref [] in
          let continue = ref true in
          while !continue do
            if !inflight < max_inflight && not (Queue.is_empty waiting) then begin
              let p = Queue.pop waiting in
              (* A cancelled entry was already answered with Timeout. *)
              if not (p.cancelled || expire p) then begin
                decr waiting_count;
                incr inflight;
                Metrics.observe_inflight metrics !inflight;
                acc := p :: !acc
              end
            end
            else continue := false
          done;
          List.rev !acc)
    in
    List.iter submit ready
  in
  (* Write as much owed output as the (non-blocking) socket accepts.
     A short or refused write leaves the session with write interest for
     the next wait; the loop resumes exactly where it stopped, so one
     stalled client never blocks the other connections. *)
  let flush_session sh sess =
    let rec go () =
      match Session.next_write sess with
      | None ->
          if Session.closing sess && not (Session.has_pending sess) then
            drop_session sh sess
      | Some (frame, off) -> (
          match
            Unix.write_substring (Session.fd sess) frame off
              (String.length frame - off)
          with
          | n ->
              Session.advance sess n;
              go ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              ()  (* socket full; wait for writability *)
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
              drop_session sh sess)
    in
    go ()
  in
  (* The pass's one walk over the shard's sessions, in id order: flush
     each, then gather the wait's read and write descriptors and whether
     the shard still owes any response.  A peer that sent EOF
     stays readable forever: polling it would spin the shard until its
     response is written.  Other closing sessions keep read interest so
     their input is still drained from the socket: closing a socket with
     unread input can reset a TCP peer before it reads its answer. *)
  let flush_all sh =
    Int_map.fold
      (fun id sess ((reads, writes, owes) as acc) ->
        flush_session sh sess;
        if not (Int_map.mem id sh.sessions) then acc
        else
          let fd = Session.fd sess in
          ( (if Session.eof sess then reads else fd :: reads),
            (if Session.has_output sess then fd :: writes else writes),
            owes || Session.has_pending sess ))
      sh.sessions ([], [], false)
  in
  let inbox_empty sh =
    Mutex.lock sh.inbox_mutex;
    let e = Queue.is_empty sh.inbox in
    Mutex.unlock sh.inbox_mutex;
    e
  in
  (* A shard may stop once nothing global is in flight and it owes its
     own sessions nothing.  Other shards may still be flushing theirs. *)
  let shard_done sh ~owes =
    Atomic.get draining
    && (not owes)
    && locked (fun () -> !waiting_count = 0 && !inflight = 0)
    && inbox_empty sh
  in
  let announced_drain = ref false in
  let rec shard_loop sh =
    if sh.idx = 0 && Atomic.get draining && not !announced_drain then begin
      announced_drain := true;
      on_event "draining: refusing new work, finishing in-flight requests"
    end;
    let reads, writes, owes = flush_all sh in
    if not (shard_done sh ~owes) then begin
      let reads =
        if sh.idx = 0 && not !accept_paused then List.map fst listeners @ reads
        else reads
      in
      if sh.idx = 0 then accept_paused := false;
      Evloop.wait sh.ev ~read:reads ~write:writes ~timeout_ms:100;
      Int_map.iter
        (fun _ sess ->
          if Evloop.readable sh.ev (Session.fd sess) then read_session sh sess)
        sh.sessions;
      (* Shard 0 reads a new connection's first request in the pass that
         accepts it (at jobs=1 the next pass may wait behind an inline
         analysis, or never come while draining), but only after the input
         already queued on older connections. *)
      if sh.idx = 0 then
        List.iter
          (fun (lfd, admit) -> if Evloop.readable sh.ev lfd then accept_all lfd admit)
          listeners;
      if sh.idx = 0 then expire_waiting ();
      submit_ready ();
      (* After [submit_ready]: at jobs=1 the pool ran the work inline, and
         its answers, already in the inbox, are written by the walk that
         opens the next pass, before any wait. *)
      process_inbox sh;
      shard_loop sh
    end
  in
  let finish_shard sh =
    Int_map.iter (fun _ sess -> drop_session sh sess) sh.sessions;
    Evloop.close sh.ev
  in
  let workers =
    Array.map
      (fun sh -> Parallel.Io.spawn (fun () -> shard_loop sh; finish_shard sh))
      (Array.sub shards 1 (nshards - 1))
  in
  shard_loop shards.(0);
  (* The metrics endpoint dies with shard 0, which drops any scrape
     still connected. *)
  finish_shard shards.(0);
  Option.iter close_quietly metrics_listen;
  Array.iter Parallel.Io.join workers;
  on_event "drained; shutting down";
  close_quietly listen_fd;
  (match address with
  | Unix_socket path -> (
      try Unix.unlink path with Unix.Unix_error (_, _, _) -> ())
  | Tcp _ -> ());
  Sys.set_signal Sys.sigpipe old_pipe;
  Sys.set_signal Sys.sigint old_int;
  Sys.set_signal Sys.sigterm old_term;
  sync_store_counters ();
  sync_admission_counters ();
  Metrics.snapshot metrics
