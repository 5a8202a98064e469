(* Mutation fuzz of the four decoders that read bytes from outside the
   process: a wire frame through Session.next_frame and
   Protocol.decode_request, a trace archive through Trace_io.of_string, a
   store entry through Cas.find and Codec.decode_entry, and an HTTP
   request head through Http.parse_request.  Each property starts from
   valid bytes, applies seeded byte flips, truncations and insertions,
   and requires a value or the decoder's typed error — never any other
   exception.  A trace archive the decoder accepts, mutated or a random
   run's, must also decode to the same run under the Scanf decoder in
   test/oracle.  The seed comes from QCHECK_SEED, fixed in `make check`. *)

module W = Serve.Wire
module P = Serve.Protocol

type mutation = Flip of int * int | Truncate of int | Insert of int * char

let gen_mutations =
  QCheck2.Gen.(
    list_size (int_range 1 4)
      (oneof
         [
           map2 (fun p mask -> Flip (p, mask)) (int_bound 100_000) (int_range 1 255);
           map (fun p -> Truncate p) (int_bound 100_000);
           map2 (fun p c -> Insert (p, c)) (int_bound 100_000) char;
         ]))

let mutate s ms =
  List.fold_left
    (fun s m ->
      let n = String.length s in
      match m with
      | Flip (p, mask) ->
          if n = 0 then s
          else
            let p = p mod n in
            String.mapi (fun i c -> if i = p then Char.chr (Char.code c lxor mask) else c) s
      | Truncate p -> String.sub s 0 (p mod (n + 1))
      | Insert (p, c) ->
          let p = p mod (n + 1) in
          String.sub s 0 p ^ String.make 1 c ^ String.sub s p (n - p))
    s ms

(* [f ()] must return; any exception fails the property with its name.
   Trace_io's typed error is a [Failure] whose message names it. *)
let total what f =
  match f () with
  | () -> true
  | exception e -> QCheck2.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------- frames ----------------------------- *)

let sample =
  {
    Sampling.Driver.eip = 0x4000;
    tid = 1;
    instrs = 20_000;
    cycles = 31_000.5;
    breakdown = { March.Breakdown.work = 1.0; fe = 0.25; exe = 0.5; other = 0.125 };
    os_instrs = 12;
    region_instrs = [| (3, 19_000); (0, 1_000) |];
  }

let requests =
  [|
    P.Analyze "gcc";
    P.Quadrant "mcf";
    P.Re_curve "odb_c";
    P.Ingest_open "stream";
    P.Ingest_feed [ sample; sample ];
    P.Ingest_finalize;
    P.Stats;
    P.Health;
    P.Shutdown;
  |]

(* Mutate either the frame as sent (header, checksum and all) or the
   payload before framing, so the checksum passes and the mutation
   reaches the request decoder. *)
let prop_frame =
  QCheck2.Test.make ~name:"frame: Session.next_frame then Protocol.decode_request" ~count:1000
    QCheck2.Gen.(triple (int_bound (Array.length requests - 1)) bool gen_mutations)
    (fun (i, reframe, ms) ->
      let payload = P.encode_request requests.(i) in
      let bytes = if reframe then W.encode (mutate payload ms) else mutate (W.encode payload) ms in
      let fd = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          total "frame decoding" (fun () ->
              let sess = Serve.Session.create ~id:0 ~peer:"fuzz" fd in
              Serve.Session.feed sess (Bytes.of_string bytes) (String.length bytes);
              let rec drain () =
                match Serve.Session.next_frame sess ~max_payload:W.default_max_payload with
                | Ok (Some p) ->
                    ignore (P.decode_request p : (P.request, string) result);
                    drain ()
                | Ok None | Error _ -> ()
              in
              drain ())))

(* ------------------------------- traces ----------------------------- *)

let traces = [| read_file "fixtures/trace-v1.fuzzytrace"; read_file "fixtures/trace-v2.fuzzytrace" |]

(* Runs are compared field by field, floats by their bits: NaNs and
   signed zeros included. *)
let same_run (a : Sampling.Driver.run) (b : Sampling.Driver.run) =
  let open Sampling.Driver in
  let same_float x y = Int64.bits_of_float x = Int64.bits_of_float y in
  let same_sample s t =
    let u = s.breakdown and v = t.breakdown in
    s.eip = t.eip && s.tid = t.tid && s.instrs = t.instrs
    && same_float s.cycles t.cycles
    && same_float u.March.Breakdown.work v.March.Breakdown.work
    && same_float u.March.Breakdown.fe v.March.Breakdown.fe
    && same_float u.March.Breakdown.exe v.March.Breakdown.exe
    && same_float u.March.Breakdown.other v.March.Breakdown.other
    && s.os_instrs = t.os_instrs && s.region_instrs = t.region_instrs
  in
  a.workload = b.workload && a.machine = b.machine && a.period = b.period
  && a.context_switches = b.context_switches && a.io_blocks = b.io_blocks
  && a.os_instr_total = b.os_instr_total && a.total_instrs = b.total_instrs
  && same_float a.total_cycles b.total_cycles
  && Array.length a.samples = Array.length b.samples
  && Array.for_all2 same_sample a.samples b.samples

(* Whatever the shipped decoder accepts, the Scanf decoder it replaced
   (test/oracle) must accept too and decode to the same run. *)
let agrees_with_oracle archive run =
  match Oracle.Trace_io.of_string ~label:"oracle" archive with
  | expected -> same_run run expected
  | exception e ->
      QCheck2.Test.fail_reportf "accepted what the Scanf decoder rejects (%s)"
        (Printexc.to_string e)

let prop_trace =
  QCheck2.Test.make ~name:"trace archive: Trace_io.of_string" ~count:1000
    QCheck2.Gen.(pair (int_bound 1) gen_mutations)
    (fun (i, ms) ->
      let archive = mutate traces.(i) ms in
      match Sampling.Trace_io.of_string ~label:"fuzz" archive with
      | run -> agrees_with_oracle archive run
      | exception Failure m when String.starts_with ~prefix:"Trace_io.load: " m -> true
      | exception e ->
          QCheck2.Test.fail_reportf "Trace_io.of_string raised %s" (Printexc.to_string e))

(* Random runs at the encoder's extremes: 0, max_int and min_int, and the
   float bit patterns %h prints specially (signed zeros, subnormals,
   infinities, NaNs of either sign), with 0-8 region pairs a sample. *)
let gen_run =
  let open QCheck2.Gen in
  let int = oneof [ oneofl [ 0; max_int; min_int ]; int; small_signed_int ] in
  let float =
    oneof
      [
        oneofl [ 0.0; -0.0; infinity; neg_infinity; nan; -.nan; Float.min_float ];
        map Int64.float_of_bits int64;
        (* subnormals, either sign *)
        map (fun b -> Int64.float_of_bits (Int64.logand b 0x800F_FFFF_FFFF_FFFFL)) int64;
        float;
      ]
  in
  let sample =
    let* eip = int and* tid = int and* instrs = int and* os_instrs = int in
    let* cycles = float and* work = float and* fe = float and* exe = float and* other = float in
    let+ region_instrs = array_size (int_bound 8) (pair int int) in
    {
      Sampling.Driver.eip;
      tid;
      instrs;
      cycles;
      breakdown = { March.Breakdown.work; fe; exe; other };
      os_instrs;
      region_instrs;
    }
  in
  let* period = int and* context_switches = int and* io_blocks = int in
  let* os_instr_total = int and* total_instrs = int and* total_cycles = float in
  let+ samples = array_size (int_bound 20) sample in
  {
    Sampling.Driver.workload = "gzip";
    machine = "itanium2";
    samples;
    period;
    context_switches;
    io_blocks;
    os_instr_total;
    total_instrs;
    total_cycles;
  }

let prop_trace_random_runs =
  QCheck2.Test.make ~name:"trace archive: random runs decode as the Scanf decoder does"
    ~count:300 ~print:Sampling.Trace_io.to_string gen_run (fun run ->
      let archive = Sampling.Trace_io.to_string run in
      agrees_with_oracle archive (Sampling.Trace_io.of_string ~label:"random" archive))

(* [prop_trace] at QCHECK_SEED=1 found a v1 archive (no checksum) whose
   region field is not an integer escaping as a bare
   [Failure "int_of_string"]; the same decoder raised [Invalid_argument]
   on a negative sample count.  Both now fail with a Trace_io message. *)
let test_trace_regressions () =
  let v1 = traces.(0) in
  let replace_first ~sub ~by s =
    let n = String.length sub in
    let rec find i = if String.sub s i n = sub then i else find (i + 1) in
    let i = find 0 in
    String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
  in
  List.iter
    (fun (name, archive, prefix) ->
      match Sampling.Trace_io.of_string ~label:"fuzz" archive with
      | _ -> Alcotest.fail (name ^ ": accepted")
      | exception Failure m ->
          if not (String.starts_with ~prefix m) then Alcotest.failf "%s: message %S" name m)
    [
      ( "non-integer region field",
        replace_first ~sub:" 1 3000 20000\n" ~by:" 1 3000 2x000\n" v1,
        "Trace_io.load: sample 0: bad region field" );
      ( "negative sample count",
        replace_first ~sub:"p+20 40\n" ~by:"p+20 -1\n" v1,
        "Trace_io.load: 40 sample lines, header declares -1" );
    ]

(* Float tokens on each edge of the shape [Trace_io] converts from its
   digits ("-?0x[01](.h{1,13})?p[+-]d{1,4}" and a separator), in every
   float field of a one-sample archive.  The shipped decoder must accept
   and reject exactly what the decoder before the digit conversion did
   ([Oracle.Trace_io.by_position]), with the same bits and messages.
   The Scanf decoder accepts the same lines, except the spellings %h
   never prints that both position decoders refuse by design (upper
   case, a leading '+'). *)
type verdict = Accepted | Scanf_only | Rejected

let float_edges =
  [
    ("0x1.fffffffffffffp+0", Accepted);
    ("0x1.fffffffffffff0p+0", Accepted);
    ("0x1.p+0", Accepted);
    ("0x1.8", Accepted);
    ("0x2p+0", Accepted);
    ("0x3.8p+1", Accepted);
    ("0xa.bp-3", Accepted);
    ("0xfp+0", Accepted);
    ("0x1p+1023", Accepted);
    ("0x1.fffffffffffffp+1023", Accepted);
    ("0x1p+1024", Accepted);
    ("0x1p+9999", Accepted);
    ("0x1p-9999", Accepted);
    ("0x1p+01023", Accepted);
    ("0x1p+10000", Accepted);
    ("0x1p+0000", Accepted);
    ("0x1p-0", Accepted);
    ("0x0.0000000000001p-1022", Accepted);
    ("0x1.8p-1075", Accepted);
    ("0x1.8p-1074", Accepted);
    ("-0x1.8p-1075", Accepted);
    ("-0x0p+0", Accepted);
    ("0x0p+0", Accepted);
    ("nan", Accepted);
    ("-nan", Accepted);
    ("infinity", Accepted);
    ("-infinity", Accepted);
    ("0X1p+0", Scanf_only);
    ("0x1P+0", Scanf_only);
    ("+0x1p+0", Scanf_only);
    ("0x1.ABp+0", Scanf_only);
    ("0x1.a", Scanf_only);
    ("0x1p+", Rejected);
    ("0x", Rejected);
    ("1.5", Rejected);
    ("0x1p+0x", Rejected);
    ("0x1pp+0", Rejected);
  ]

let decode f archive =
  match f archive with run -> Ok run | exception Failure m -> Error m

let test_float_edges () =
  let archive ~version tok =
    let body =
      Printf.sprintf "fuzzytrace %d gzip itanium2 20000 0 0 0 100 0x1.9p+6 1\n4096 1 100%s 0 1 3 100\n"
        version
        (String.concat "" (List.init 5 (fun _ -> " " ^ tok)))
    in
    if version = 1 then body else Stats.Checksum.seal ~tag:"fuzzytrace" body
  in
  let check name archive verdict =
    let shipped = decode (Sampling.Trace_io.of_string ~label:"edge") archive in
    let before = decode (Oracle.Trace_io.by_position ~label:"edge") archive in
    let scanf = decode (Oracle.Trace_io.of_string ~label:"edge") archive in
    (match (shipped, before) with
    | Ok a, Ok b -> if not (same_run a b) then Alcotest.failf "%s: bits differ" name
    | Error a, Error b -> Alcotest.(check string) (name ^ ": message") b a
    | Ok _, Error m -> Alcotest.failf "%s: accepted, before rejected (%s)" name m
    | Error m, Ok _ -> Alcotest.failf "%s: rejected (%s), before accepted" name m);
    match (verdict, shipped, scanf) with
    | Accepted, Ok a, Ok b -> if not (same_run a b) then Alcotest.failf "%s: Scanf bits" name
    | Scanf_only, Error _, Ok _ | Rejected, Error _, Error _ -> ()
    | _ -> Alcotest.failf "%s: not the expected verdict" name
  in
  List.iter
    (fun (tok, verdict) ->
      check tok (archive ~version:2 tok) verdict;
      check ("v1 " ^ tok) (archive ~version:1 tok) verdict)
    float_edges;
  (* A v1 body (no trailer) that ends right after a token in the shape:
     no separator follows, so the line is short. *)
  let cut = "fuzzytrace 1 gzip itanium2 20000 0 0 0 100 0x1.9p+6 1\n4096 1 100 0x1p+0" in
  check "token at the end of the body" cut Rejected

(* ---------------------------- store entries ------------------------- *)

let entry = read_file "fixtures/store-entry.fuzzystore"

let entry_key, entry_payload =
  Scanf.sscanf entry "fuzzystore %d %d %d\n%n" (fun _ key_len payload_len pos ->
      (String.sub entry pos key_len, String.sub entry (pos + key_len + 1) payload_len))

let store_dir =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "fuzzy-fuzz-store-%d" (Unix.getpid ()))

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let () = at_exit (fun () -> if Sys.file_exists store_dir then remove_tree store_dir)

let same_curve (a : Rtree.Cv.curve) (b : Rtree.Cv.curve) =
  let bits = Array.map Int64.bits_of_float in
  a.Rtree.Cv.k_values = b.Rtree.Cv.k_values
  && bits a.Rtree.Cv.e = bits b.Rtree.Cv.e
  && bits a.Rtree.Cv.re = bits b.Rtree.Cv.re
  && Int64.bits_of_float a.Rtree.Cv.variance = Int64.bits_of_float b.Rtree.Cv.variance

(* The read path before entries were read in place (test/oracle):
   [Some (payload, decoded)] for a file [find] should hit. *)
let oracle_read file =
  match Oracle.Cas.unframe file with
  | Ok (key, payload) when key = entry_key -> Some (payload, Oracle.Codec.decode_entry payload)
  | Ok _ | Error _ -> None

(* Mutate either the entry file on disk (find must validate it) or the
   payload before [put] (find returns it and the codec must reject or
   accept it); a quarter of the cases leave it intact.  The shipped path
   must hit exactly the files the oracle accepts, with the same payload,
   and decode exactly the payloads it decodes, to the same run and curve
   bits or the same error. *)
let prop_store =
  QCheck2.Test.make ~name:"store entry: Cas.find then Codec.decode_entry" ~count:300
    QCheck2.Gen.(pair bool (frequency [ (1, pure []); (3, gen_mutations) ]))
    (fun (in_file, ms) ->
      let cas = Store.Cas.open_dir ~dir:store_dir in
      let path = Store.Cas.path_of_digest cas (Store.Cas.digest_of_key entry_key) in
      if Sys.file_exists path then Sys.remove path;
      if in_file then begin
        Store.Cas.put cas ~key:entry_key entry_payload;
        let oc = open_out_bin path in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (mutate entry ms))
      end
      else Store.Cas.put cas ~key:entry_key (mutate entry_payload ms);
      let expected = oracle_read (read_file path) in
      match Store.Cas.find cas ~key:entry_key with
      | exception e -> QCheck2.Test.fail_reportf "Cas.find raised %s" (Printexc.to_string e)
      | found -> (
          match (found, expected) with
          | None, None -> true
          | Some _, None -> QCheck2.Test.fail_reportf "hit a file the oracle rejects"
          | None, Some _ -> QCheck2.Test.fail_reportf "missed a file the oracle accepts"
          | Some payload, Some (payload', _) when payload <> payload' ->
              QCheck2.Test.fail_reportf "payload differs from the oracle's"
          | Some payload, Some (_, decoded) -> (
              match (Store.Codec.decode_entry payload, decoded) with
              | exception e ->
                  QCheck2.Test.fail_reportf "decode_entry raised %s" (Printexc.to_string e)
              | Ok (run, curve), Ok (run', curve') -> same_run run run' && same_curve curve curve'
              | Error m, Error m' -> m = m' || QCheck2.Test.fail_reportf "%S, oracle %S" m m'
              | Ok _, Error m -> QCheck2.Test.fail_reportf "decoded what the oracle rejects (%s)" m
              | Error m, Ok _ -> QCheck2.Test.fail_reportf "rejected (%s) what the oracle decodes" m)))

(* ------------------------------ HTTP heads -------------------------- *)

let heads =
  [|
    "GET /metrics HTTP/1.1\r\nHost: localhost:9100\r\nAccept: */*\r\n\r\n";
    "GET /health HTTP/1.0\n\n";
  |]

let prop_http =
  QCheck2.Test.make ~name:"http head: Http.parse_request" ~count:1000
    QCheck2.Gen.(pair (int_bound 1) gen_mutations)
    (fun (i, ms) ->
      let head = mutate heads.(i) ms in
      total "Http.parse_request" (fun () ->
          ignore
            (Metrics_http.Http.parse_request (Bytes.of_string head) (String.length head)
              : Metrics_http.Http.parse_result)))

let () =
  Alcotest.run "fuzz"
    [
      ( "mutation fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ prop_frame; prop_trace; prop_trace_random_runs; prop_store; prop_http ] );
      ( "regressions",
        [
          Alcotest.test_case "trace archive" `Quick test_trace_regressions;
          Alcotest.test_case "float token edges" `Quick test_float_edges;
        ] );
    ]
