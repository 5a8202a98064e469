(* Message codec: one tag byte per constructor, fixed-width fields via
   Wire.Enc/Dec.  Decoders validate tags and reject trailing bytes so a
   corrupt payload becomes a typed Error, never a partial message. *)

type request =
  | Analyze of string
  | Quadrant of string
  | Re_curve of string
  | Ingest_open of string
  | Ingest_feed of Sampling.Driver.sample list
  | Ingest_finalize
  | Stats
  | Health
  | Shutdown

type error_code =
  | Overloaded
  | Timeout
  | Busy
  | Bad_request
  | Unknown_workload
  | Failed
  | Rate_limited
  | Too_large

type response =
  | Report of string
  | Quadrant_verdict of {
      workload : string;
      quadrant : Fuzzy.Quadrant.t;
      cpi_variance : float;
      re_kopt : float;
      kopt : int;
      technique : string;
    }
  | Curve of { workload : string; curve : Rtree.Cv.curve }
  | Verdicts of string list
  | Ingest_ack of string
  | Ingest_final of string
  | Stats_snapshot of Metrics.snapshot
  | Health_ok of { version : int; jobs : int; workloads : int }
  | Shutdown_ack
  | Error of { code : error_code; message : string }

let request_kind = function
  | Analyze _ -> "analyze"
  | Quadrant _ -> "quadrant"
  | Re_curve _ -> "re_curve"
  | Ingest_open _ -> "ingest_open"
  | Ingest_feed _ -> "ingest_feed"
  | Ingest_finalize -> "ingest_finalize"
  | Stats -> "stats"
  | Health -> "health"
  | Shutdown -> "shutdown"

let error_code_to_string = function
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Busy -> "busy"
  | Bad_request -> "bad_request"
  | Unknown_workload -> "unknown_workload"
  | Failed -> "failed"
  | Rate_limited -> "rate_limited"
  | Too_large -> "too_large"

let error_code_tag = function
  | Overloaded -> 0
  | Timeout -> 1
  | Busy -> 2
  | Bad_request -> 3
  | Unknown_workload -> 4
  | Failed -> 5
  | Rate_limited -> 6
  | Too_large -> 7

let error_code_of_tag = function
  | 0 -> Overloaded
  | 1 -> Timeout
  | 2 -> Busy
  | 3 -> Bad_request
  | 4 -> Unknown_workload
  | 5 -> Failed
  | 6 -> Rate_limited
  | 7 -> Too_large
  | t -> raise (Wire.Decode_error (Printf.sprintf "bad error code tag %d" t))

(* ----------------------------- samples ------------------------------ *)

let enc_sample e (s : Sampling.Driver.sample) =
  Wire.Enc.int e s.Sampling.Driver.eip;
  Wire.Enc.int e s.Sampling.Driver.tid;
  Wire.Enc.int e s.Sampling.Driver.instrs;
  Wire.Enc.float e s.Sampling.Driver.cycles;
  Wire.Enc.float e s.Sampling.Driver.breakdown.March.Breakdown.work;
  Wire.Enc.float e s.Sampling.Driver.breakdown.March.Breakdown.fe;
  Wire.Enc.float e s.Sampling.Driver.breakdown.March.Breakdown.exe;
  Wire.Enc.float e s.Sampling.Driver.breakdown.March.Breakdown.other;
  Wire.Enc.int e s.Sampling.Driver.os_instrs;
  Wire.Enc.list e
    (fun e (r, n) ->
      Wire.Enc.int e r;
      Wire.Enc.int e n)
    (Array.to_list s.Sampling.Driver.region_instrs)

let dec_sample d =
  let eip = Wire.Dec.int d in
  let tid = Wire.Dec.int d in
  let instrs = Wire.Dec.int d in
  let cycles = Wire.Dec.float d in
  let work = Wire.Dec.float d in
  let fe = Wire.Dec.float d in
  let exe = Wire.Dec.float d in
  let other = Wire.Dec.float d in
  let os_instrs = Wire.Dec.int d in
  let region_instrs =
    Array.of_list
      (Wire.Dec.list d (fun d ->
           let r = Wire.Dec.int d in
           let n = Wire.Dec.int d in
           (r, n)))
  in
  {
    Sampling.Driver.eip;
    tid;
    instrs;
    cycles;
    breakdown = { March.Breakdown.work; fe; exe; other };
    os_instrs;
    region_instrs;
  }

(* ----------------------------- requests ----------------------------- *)

let encode_request req =
  let e = Wire.Enc.create () in
  (match req with
  | Analyze w ->
      Wire.Enc.u8 e 0;
      Wire.Enc.string e w
  | Quadrant w ->
      Wire.Enc.u8 e 1;
      Wire.Enc.string e w
  | Re_curve w ->
      Wire.Enc.u8 e 2;
      Wire.Enc.string e w
  | Ingest_open stream ->
      Wire.Enc.u8 e 3;
      Wire.Enc.string e stream
  | Ingest_feed samples ->
      Wire.Enc.u8 e 4;
      Wire.Enc.list e enc_sample samples
  | Ingest_finalize -> Wire.Enc.u8 e 5
  | Stats -> Wire.Enc.u8 e 6
  | Health -> Wire.Enc.u8 e 7
  | Shutdown -> Wire.Enc.u8 e 8);
  Wire.Enc.contents e

let decode_request payload =
  match
    let d = Wire.Dec.of_string payload in
    let req =
      match Wire.Dec.u8 d with
      | 0 -> Analyze (Wire.Dec.string d)
      | 1 -> Quadrant (Wire.Dec.string d)
      | 2 -> Re_curve (Wire.Dec.string d)
      | 3 -> Ingest_open (Wire.Dec.string d)
      | 4 -> Ingest_feed (Wire.Dec.list d dec_sample)
      | 5 -> Ingest_finalize
      | 6 -> Stats
      | 7 -> Health
      | 8 -> Shutdown
      | t -> raise (Wire.Decode_error (Printf.sprintf "bad request tag %d" t))
    in
    Wire.Dec.expect_end d;
    req
  with
  | req -> Ok req
  | exception Wire.Decode_error msg -> Stdlib.Error msg
  | exception Invalid_argument msg -> Stdlib.Error msg

(* ----------------------------- responses ---------------------------- *)

(* The stats frame is one fold over [Metrics.table]: its scalars and
   lists in table order, the rows the snapshot does not carry skipped. *)
let enc_snapshot e s =
  let pair e (k, v) =
    Wire.Enc.string e k;
    Wire.Enc.int e v
  in
  List.iter
    (fun (r : Metrics.row) ->
      match r.field with
      | Scalar { get; _ } -> Wire.Enc.int e (get s)
      | Labelled { get; _ } -> Wire.Enc.list e pair (get s)
      | Live _ | Latency _ -> ())
    Metrics.table

let dec_snapshot d =
  let pair d =
    let k = Wire.Dec.string d in
    let v = Wire.Dec.int d in
    (k, v)
  in
  List.fold_left
    (fun s (r : Metrics.row) ->
      match r.field with
      | Scalar { set; _ } -> set s (Wire.Dec.int d)
      | Labelled { set; _ } -> set s (Wire.Dec.list d pair)
      | Live _ | Latency _ -> s)
    Metrics.zero Metrics.table

let enc_curve e (c : Rtree.Cv.curve) =
  Wire.Enc.list e Wire.Enc.int (Array.to_list c.Rtree.Cv.k_values);
  Wire.Enc.list e Wire.Enc.float (Array.to_list c.Rtree.Cv.e);
  Wire.Enc.list e Wire.Enc.float (Array.to_list c.Rtree.Cv.re);
  Wire.Enc.float e c.Rtree.Cv.variance

let dec_curve d =
  let k_values = Array.of_list (Wire.Dec.list d Wire.Dec.int) in
  let e = Array.of_list (Wire.Dec.list d Wire.Dec.float) in
  let re = Array.of_list (Wire.Dec.list d Wire.Dec.float) in
  let variance = Wire.Dec.float d in
  { Rtree.Cv.k_values; e; re; variance }

let encode_response resp =
  let e = Wire.Enc.create () in
  (match resp with
  | Report text ->
      Wire.Enc.u8 e 0;
      Wire.Enc.string e text
  | Quadrant_verdict { workload; quadrant; cpi_variance; re_kopt; kopt; technique } ->
      Wire.Enc.u8 e 1;
      Wire.Enc.string e workload;
      Wire.Enc.u8 e (Fuzzy.Quadrant.to_int quadrant);
      Wire.Enc.float e cpi_variance;
      Wire.Enc.float e re_kopt;
      Wire.Enc.int e kopt;
      Wire.Enc.string e technique
  | Curve { workload; curve } ->
      Wire.Enc.u8 e 2;
      Wire.Enc.string e workload;
      enc_curve e curve
  | Verdicts lines ->
      Wire.Enc.u8 e 3;
      Wire.Enc.list e Wire.Enc.string lines
  | Ingest_ack stream ->
      Wire.Enc.u8 e 4;
      Wire.Enc.string e stream
  | Ingest_final text ->
      Wire.Enc.u8 e 5;
      Wire.Enc.string e text
  | Stats_snapshot snap ->
      Wire.Enc.u8 e 6;
      enc_snapshot e snap
  | Health_ok { version; jobs; workloads } ->
      Wire.Enc.u8 e 7;
      Wire.Enc.int e version;
      Wire.Enc.int e jobs;
      Wire.Enc.int e workloads
  | Shutdown_ack -> Wire.Enc.u8 e 8
  | Error { code; message } ->
      Wire.Enc.u8 e 9;
      Wire.Enc.u8 e (error_code_tag code);
      Wire.Enc.string e message);
  Wire.Enc.contents e

let decode_response payload =
  match
    let d = Wire.Dec.of_string payload in
    let resp =
      match Wire.Dec.u8 d with
      | 0 -> Report (Wire.Dec.string d)
      | 1 ->
          let workload = Wire.Dec.string d in
          let quadrant = Fuzzy.Quadrant.of_int (Wire.Dec.u8 d) in
          let cpi_variance = Wire.Dec.float d in
          let re_kopt = Wire.Dec.float d in
          let kopt = Wire.Dec.int d in
          let technique = Wire.Dec.string d in
          Quadrant_verdict { workload; quadrant; cpi_variance; re_kopt; kopt; technique }
      | 2 ->
          let workload = Wire.Dec.string d in
          let curve = dec_curve d in
          Curve { workload; curve }
      | 3 -> Verdicts (Wire.Dec.list d Wire.Dec.string)
      | 4 -> Ingest_ack (Wire.Dec.string d)
      | 5 -> Ingest_final (Wire.Dec.string d)
      | 6 -> Stats_snapshot (dec_snapshot d)
      | 7 ->
          let version = Wire.Dec.int d in
          let jobs = Wire.Dec.int d in
          let workloads = Wire.Dec.int d in
          Health_ok { version; jobs; workloads }
      | 8 -> Shutdown_ack
      | 9 ->
          let code = error_code_of_tag (Wire.Dec.u8 d) in
          let message = Wire.Dec.string d in
          Error { code; message }
      | t -> raise (Wire.Decode_error (Printf.sprintf "bad response tag %d" t))
    in
    Wire.Dec.expect_end d;
    resp
  with
  | resp -> Ok resp
  | exception Wire.Decode_error msg -> Stdlib.Error msg
  | exception Invalid_argument msg -> Stdlib.Error msg

let is_error = function Error _ -> true | _ -> false

let quadrant_verdict name (a : Fuzzy.Analysis.t) =
  Quadrant_verdict
    {
      workload = name;
      quadrant = a.quadrant;
      cpi_variance = a.cpi_variance;
      re_kopt = a.re_kopt;
      kopt = a.kopt;
      technique = Fuzzy.Techniques.(to_string (recommend a.quadrant));
    }

let render_response = function
  | Report text -> text
  | Quadrant_verdict { workload; quadrant; cpi_variance; re_kopt; kopt; technique } ->
      Printf.sprintf
        "%s: %s -- %s\n  cpi_variance %.6f, RE_kopt %.3f at k_opt=%d\n  recommended sampling technique: %s\n"
        workload
        (Fuzzy.Quadrant.to_string quadrant)
        (Fuzzy.Quadrant.description quadrant)
        cpi_variance re_kopt kopt technique
  | Curve { workload; curve } ->
      Printf.sprintf "RE curve for %s:\n%s" workload (Fuzzy.Report.re_curve curve)
  | Verdicts lines -> String.concat "" (List.map (fun l -> l ^ "\n") lines)
  | Ingest_ack stream -> Printf.sprintf "ingest stream %S open\n" stream
  | Ingest_final text -> text
  | Stats_snapshot snap -> Metrics.render snap
  | Health_ok { version; jobs; workloads } ->
      Printf.sprintf "ok: protocol v%d, jobs=%d, %d catalog workloads\n" version jobs
        workloads
  | Shutdown_ack -> "server is shutting down\n"
  | Error { code; message } ->
      Printf.sprintf "error (%s): %s\n" (error_code_to_string code) message
