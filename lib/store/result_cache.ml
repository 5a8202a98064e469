(* The disk tier behind [Experiments.analyze_cached].

   lib/core cannot depend on this library (store depends on fuzzy), so
   the wiring is inverted: [attach] installs probe/persist callbacks via
   [Experiments.set_disk_tier] and from then on every in-memory cache
   miss consults the store before computing, and every computed result is
   persisted.  [warm] goes the other way at startup, preloading the
   in-memory tier from disk so a restarted server answers from cache
   immediately. *)

let state : Cas.t option ref = ref None

(* The one store reader: a payload that does not decode is quarantined
   and reads as a miss. *)
let probe cas config name =
  let key = Codec.canonical_key config name in
  match Cas.find cas ~key with
  | None -> None
  | Some payload -> (
      match Codec.decode_entry payload with
      | Ok (run, curve) -> Some (Fuzzy.Analysis.of_parts config ~name ~run ~curve)
      | Error _ ->
          Cas.reject cas ~key;
          None)

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
      (* Collect keys first, then re-read each through [probe] so warm
         loads show up in the hit counter like any other store read. *)
      let keys =
        List.rev (Cas.fold cas ~init:[] ~f:(fun acc ~key ~payload:_ -> key :: acc))
      in
      List.fold_left
        (fun loaded key ->
          match Codec.parse_key ~jobs key with
          | None -> loaded (* foreign stamp or format: leave in place *)
          | Some (config, name) -> (
              match probe cas config name with
              | None -> loaded
              | Some a ->
                  Fuzzy.Experiments.preload a;
                  loaded + 1))
        0 keys

let counters () = Option.map Cas.counters !state
