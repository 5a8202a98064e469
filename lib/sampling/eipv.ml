type interval = {
  eipv : Stats.Sparse_vec.t;
  cpi : float;
  instrs : int;
  cycles : float;
  breakdown : March.Breakdown.t;
  first_sample : int;
}

type t = {
  intervals : interval array;
  eip_of_feature : int array;
  n_features : int;
  samples_per_interval : int;
}

type interner = {
  feature_of_eip : (int, int) Hashtbl.t;
  mutable eips : int list;
  mutable next : int;
}

let new_interner () = { feature_of_eip = Hashtbl.create 1024; eips = []; next = 0 }

let intern it eip =
  match Hashtbl.find_opt it.feature_of_eip eip with
  | Some f -> f
  | None ->
      let f = it.next in
      it.next <- it.next + 1;
      Hashtbl.add it.feature_of_eip eip f;
      it.eips <- eip :: it.eips;
      f

(* The incremental interval builder: one sample at a time, sealing an
   interval every [samples_per_interval] feeds.  The batch constructors
   below are thin wrappers over it, so the streaming subsystem
   ([Online.Pipeline]) and the offline pipeline build identical intervals
   by construction. *)
module Builder = struct
  type builder = {
    it : interner;
    samples_per_interval : int;
    mutable counts : (int, int) Hashtbl.t;
    mutable instrs : int;
    mutable cycles : float;
    mutable bd : March.Breakdown.t;
    mutable filled : int;  (** samples in the current partial interval *)
    mutable fed : int;  (** total samples ever fed *)
    mutable n_sealed : int;
  }

  type t = builder

  let with_interner it ~samples_per_interval =
    if samples_per_interval <= 0 then
      invalid_arg "Eipv.Builder.create: samples_per_interval must be positive";
    {
      it;
      samples_per_interval;
      counts = Hashtbl.create 64;
      instrs = 0;
      cycles = 0.0;
      bd = March.Breakdown.zero;
      filled = 0;
      fed = 0;
      n_sealed = 0;
    }

  let create ~samples_per_interval = with_interner (new_interner ()) ~samples_per_interval

  let feed b (smp : Driver.sample) =
    let f = intern b.it smp.Driver.eip in
    (match Hashtbl.find_opt b.counts f with
    | Some c -> Hashtbl.replace b.counts f (c + 1)
    | None -> Hashtbl.add b.counts f 1);
    b.instrs <- b.instrs + smp.Driver.instrs;
    b.cycles <- b.cycles +. smp.Driver.cycles;
    b.bd <- March.Breakdown.add b.bd smp.Driver.breakdown;
    b.filled <- b.filled + 1;
    b.fed <- b.fed + 1;
    if b.filled < b.samples_per_interval then None
    else begin
      let iv =
        {
          eipv = Stats.Sparse_vec.of_counts b.counts;
          cpi = b.cycles /. float_of_int (max 1 b.instrs);
          instrs = b.instrs;
          cycles = b.cycles;
          breakdown = March.Breakdown.per_instr b.bd ~instrs:(max 1 b.instrs);
          first_sample = b.fed - b.samples_per_interval;
        }
      in
      b.counts <- Hashtbl.create 64;
      b.instrs <- 0;
      b.cycles <- 0.0;
      b.bd <- March.Breakdown.zero;
      b.filled <- 0;
      b.n_sealed <- b.n_sealed + 1;
      Some iv
    end

  let sealed b = b.n_sealed
  let pending_samples b = b.filled
  let n_features b = b.it.next
end

let intervals_of_samples it (samples : Driver.sample array) ~samples_per_interval =
  let b = Builder.with_interner it ~samples_per_interval in
  (* Trailing samples that do not fill an interval are dropped before
     feeding, so they intern no features (matching the documented batch
     contract). *)
  let n = Array.length samples / samples_per_interval * samples_per_interval in
  let out = ref [] in
  for i = 0 to n - 1 do
    match Builder.feed b samples.(i) with Some iv -> out := iv :: !out | None -> ()
  done;
  Array.of_list (List.rev !out)

let build_from_samples (samples : Driver.sample array) ~samples_per_interval =
  if samples_per_interval <= 0 then
    invalid_arg "Eipv.build: samples_per_interval must be positive";
  if Array.length samples / samples_per_interval = 0 then
    invalid_arg "Eipv.build: not enough samples for one interval";
  let it = new_interner () in
  let intervals = intervals_of_samples it samples ~samples_per_interval in
  {
    intervals;
    eip_of_feature = Array.of_list (List.rev it.eips);
    n_features = it.next;
    samples_per_interval;
  }

let build (run : Driver.run) ~samples_per_interval =
  build_from_samples run.Driver.samples ~samples_per_interval

let samples_by_thread (run : Driver.run) =
  let by_tid = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      let l =
        match Hashtbl.find_opt by_tid s.Driver.tid with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.add by_tid s.Driver.tid l;
            l
      in
      l := s :: !l)
    run.Driver.samples;
  Stats.Det.hashtbl_bindings by_tid
  |> List.map (fun (tid, l) -> (tid, Array.of_list (List.rev !l)))

let build_thread_separated (run : Driver.run) ~samples_per_interval =
  if samples_per_interval <= 0 then
    invalid_arg "Eipv.build_thread_separated: samples_per_interval must be positive";
  let it = new_interner () in
  let groups = samples_by_thread run in
  let intervals =
    List.concat_map
      (fun (_, samples) ->
        Array.to_list (intervals_of_samples it samples ~samples_per_interval))
      groups
    |> Array.of_list
  in
  if Array.length intervals = 0 then
    invalid_arg "Eipv.build_thread_separated: not enough samples for one interval";
  {
    intervals;
    eip_of_feature = Array.of_list (List.rev it.eips);
    n_features = it.next;
    samples_per_interval;
  }

let cpis t = Array.map (fun iv -> iv.cpi) t.intervals
let cpi_variance t = Stats.Describe.variance (cpis t)

let dataset t =
  Rtree.Dataset.make ~rows:(Array.map (fun iv -> iv.eipv) t.intervals) ~y:(cpis t)

let points t = Array.map (fun iv -> iv.eipv) t.intervals
