(** Request/response vocabulary of the analysis server and its
    deterministic binary codec.

    A request names a workload (or carries samples for a per-session
    ingest stream); a response carries either the rendered analysis —
    byte-identical to what the offline CLI prints for the same
    configuration — or a typed error.  Encoding is built on {!Wire.Enc}
    / {!Wire.Dec}, so [encode_* ] is a pure function of the message and
    round-trips exactly (property-tested in [test/test_serve.ml]). *)

type request =
  | Analyze of string  (** full predictability report for a workload *)
  | Quadrant of string  (** just the quadrant verdict + technique *)
  | Re_curve of string  (** the cross-validated RE_k curve *)
  | Ingest_open of string
      (** open this connection's streaming pipeline; the argument names
          the stream (it labels the reservoir RNG, so equal names and
          configs give byte-identical verdicts) *)
  | Ingest_feed of Sampling.Driver.sample list
      (** feed samples; answered with the verdict lines of every
          interval the batch sealed *)
  | Ingest_finalize  (** final fit + verdict; closes the stream *)
  | Stats  (** the server's metrics snapshot *)
  | Health
  | Shutdown  (** ack, then drain and exit *)

type error_code =
  | Overloaded  (** bounded request queue is full *)
  | Timeout  (** deadline exceeded before the request was served *)
  | Busy  (** connection refused at the max-connections cap *)
  | Bad_request  (** frame or payload did not parse *)
  | Unknown_workload
  | Failed  (** the work itself raised *)
  | Rate_limited  (** admission: the peer's token bucket is empty *)
  | Too_large  (** admission: request over the size budget *)

type response =
  | Report of string
      (** [Analyze] payload: exactly the offline [repro analyze] text *)
  | Quadrant_verdict of {
      workload : string;
      quadrant : Fuzzy.Quadrant.t;
      cpi_variance : float;
      re_kopt : float;
      kopt : int;
      technique : string;
    }
  | Curve of { workload : string; curve : Rtree.Cv.curve }
  | Verdicts of string list  (** rendered {!Online.Classifier} lines *)
  | Ingest_ack of string  (** stream name *)
  | Ingest_final of string  (** rendered {!Online.Pipeline.pp_final} *)
  | Stats_snapshot of Metrics.snapshot
  | Health_ok of { version : int; jobs : int; workloads : int }
  | Shutdown_ack
  | Error of { code : error_code; message : string }

val quadrant_verdict : string -> Fuzzy.Analysis.t -> response
(** [quadrant_verdict name analysis] is the [Quadrant] RPC's answer,
    built once for the server and for [repro quadrant], whose output must
    be byte-identical to it. *)

val request_kind : request -> string
(** Short stable label ("analyze", "ingest_feed", ...) used as the
    metrics key. *)

val error_code_to_string : error_code -> string

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_response : response -> string
val decode_response : string -> (response, string) result

val render_response : response -> string
(** What [repro client] prints for a response.  For [Report],
    [Verdicts], [Ingest_final] and [Stats_snapshot] this is exactly the
    text the corresponding offline command would print. *)

val is_error : response -> bool
