(* The disk tier behind [Experiments.analyze_cached].

   lib/core cannot depend on this library (store depends on fuzzy), so
   the wiring is inverted: [attach] installs probe/persist callbacks via
   [Experiments.set_disk_tier] and from then on every in-memory cache
   miss consults the store before computing, and every computed result is
   persisted.  [warm] goes the other way at startup, preloading the
   in-memory tier from disk so a restarted server answers from cache
   immediately. *)

let state : Cas.t option ref = ref None

(* The one decode path of a store read: a payload that does not decode
   is quarantined and reads as a miss. *)
let of_payload cas config name ~key payload =
  match Codec.decode_entry payload with
  | Ok (run, curve) -> Some (Fuzzy.Analysis.of_parts config ~name ~run ~curve)
  | Error _ ->
      Cas.reject cas ~key;
      None

let probe cas config name =
  let key = Codec.canonical_key config name in
  Option.bind (Cas.find cas ~key) (of_payload cas config name ~key)

let attach ~dir =
  let cas = Cas.open_dir ~dir in
  state := Some cas;
  let persist config name analysis =
    let key = Codec.canonical_key config name in
    (* Persist failures (read-only store, disk full) must never fail the
       analysis that just succeeded; the entry is simply not cached. *)
    try Cas.put cas ~key (Codec.encode_entry analysis)
    with Sys_error _ | Unix.Unix_error (_, _, _) -> ()
  in
  Fuzzy.Experiments.set_disk_tier
    (Some { Fuzzy.Experiments.probe = probe cas; persist })

let detach () =
  Fuzzy.Experiments.set_disk_tier None;
  state := None

let attached () = !state

let warm ~jobs () =
  match !state with
  | None -> 0
  | Some cas ->
      (* One pass: the fold reads and checksums each entry once, and
         the callback decodes its payload.  A key that parses counts a
         hit before the decode, as the [Cas.find] in [probe] would. *)
      Cas.fold cas ~init:0 ~f:(fun loaded ~key ~payload ->
          match Codec.parse_key ~jobs key with
          | None -> loaded (* foreign stamp or format: leave in place *)
          | Some (config, name) -> (
              Cas.count_hit cas;
              match of_payload cas config name ~key payload with
              | None -> loaded
              | Some a ->
                  Fuzzy.Experiments.preload a;
                  loaded + 1))

let counters () = Option.map Cas.counters !state
