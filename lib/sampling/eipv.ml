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

(* Feature ids by EIP, in order of first sight.  The table is open
   addressing over int keys with linear probing, a power-of-two size and
   at most half its slots full, so interning hashes and compares no
   polymorphic value. *)
type interner = {
  mutable slot_eip : int array;
  mutable slot_id : int array;  (** feature id + 1; 0 marks a free slot *)
  mutable eips : int array;  (** feature id -> EIP, the first [next] used *)
  mutable next : int;
}

let new_interner () =
  { slot_eip = Array.make 1024 0; slot_id = Array.make 1024 0; eips = Array.make 256 0; next = 0 }

let slot_of it eip =
  let mask = Array.length it.slot_id - 1 in
  let h = eip * 0x1E3779B97F4A7C15 in
  let i = ref ((h lxor (h lsr 29)) land mask) in
  while it.slot_id.(!i) <> 0 && it.slot_eip.(!i) <> eip do
    i := (!i + 1) land mask
  done;
  !i

let rehash it =
  let size = 2 * Array.length it.slot_id in
  it.slot_eip <- Array.make size 0;
  it.slot_id <- Array.make size 0;
  for f = 0 to it.next - 1 do
    let i = slot_of it it.eips.(f) in
    it.slot_eip.(i) <- it.eips.(f);
    it.slot_id.(i) <- f + 1
  done

let rec intern it eip =
  let i = slot_of it eip in
  let id = it.slot_id.(i) in
  if id > 0 then id - 1
  else if 2 * (it.next + 1) > Array.length it.slot_id then begin
    rehash it;
    intern it eip
  end
  else begin
    let f = it.next in
    if f = Array.length it.eips then begin
      let eips = Array.make (2 * f) 0 in
      Array.blit it.eips 0 eips 0 f;
      it.eips <- eips
    end;
    it.eips.(f) <- eip;
    it.slot_eip.(i) <- eip;
    it.slot_id.(i) <- f + 1;
    it.next <- f + 1;
    f
  end

(* The incremental interval builder: one sample at a time, sealing an
   interval every [samples_per_interval] feeds.  The batch constructors
   below are thin wrappers over it, so the streaming subsystem
   ([Online.Pipeline]) and the offline pipeline build identical intervals
   by construction. *)
module Builder = struct
  type builder = {
    it : interner;
    samples_per_interval : int;
    mutable counts : int array;  (** feature id -> samples in the current interval *)
    touched : int array;  (** the ids [counts] holds non-zero, first [n_touched] *)
    mutable n_touched : int;
    sums : float array;
        (** the current interval's cycles, then its work, fe, exe and other
            stall cycles, each summed in feed order *)
    mutable instrs : int;
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
      counts = Array.make (max 64 it.next) 0;
      touched = Array.make samples_per_interval 0;
      n_touched = 0;
      sums = Array.make 5 0.0;
      instrs = 0;
      filled = 0;
      fed = 0;
      n_sealed = 0;
    }

  let create ~samples_per_interval = with_interner (new_interner ()) ~samples_per_interval

  (* The interval's histogram, ids ascending, and a zeroed [counts]. *)
  let histogram b =
    let idx = Array.sub b.touched 0 b.n_touched in
    Array.sort (fun (x : int) y -> compare x y) idx;
    let v =
      Array.init b.n_touched (fun k ->
          let f = idx.(k) in
          let c = b.counts.(f) in
          b.counts.(f) <- 0;
          float_of_int c)
    in
    b.n_touched <- 0;
    Stats.Sparse_vec.of_sorted idx v

  let feed b (smp : Driver.sample) =
    let f = intern b.it smp.Driver.eip in
    if f >= Array.length b.counts then begin
      let counts = Array.make (max (f + 1) (2 * Array.length b.counts)) 0 in
      Array.blit b.counts 0 counts 0 (Array.length b.counts);
      b.counts <- counts
    end;
    let c = b.counts.(f) in
    if c = 0 then begin
      b.touched.(b.n_touched) <- f;
      b.n_touched <- b.n_touched + 1
    end;
    b.counts.(f) <- c + 1;
    b.instrs <- b.instrs + smp.Driver.instrs;
    let sums = b.sums and bd = smp.Driver.breakdown in
    sums.(0) <- sums.(0) +. smp.Driver.cycles;
    sums.(1) <- sums.(1) +. bd.March.Breakdown.work;
    sums.(2) <- sums.(2) +. bd.March.Breakdown.fe;
    sums.(3) <- sums.(3) +. bd.March.Breakdown.exe;
    sums.(4) <- sums.(4) +. bd.March.Breakdown.other;
    b.filled <- b.filled + 1;
    b.fed <- b.fed + 1;
    if b.filled < b.samples_per_interval then None
    else begin
      let instrs = max 1 b.instrs in
      let bd =
        { March.Breakdown.work = sums.(1); fe = sums.(2); exe = sums.(3); other = sums.(4) }
      in
      let iv =
        {
          eipv = histogram b;
          cpi = sums.(0) /. float_of_int instrs;
          instrs = b.instrs;
          cycles = sums.(0);
          breakdown = March.Breakdown.per_instr bd ~instrs;
          first_sample = b.fed - b.samples_per_interval;
        }
      in
      Array.fill sums 0 5 0.0;
      b.instrs <- 0;
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
    eip_of_feature = Array.sub it.eips 0 it.next;
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
    eip_of_feature = Array.sub it.eips 0 it.next;
    n_features = it.next;
    samples_per_interval;
  }

let cpis t = Array.map (fun iv -> iv.cpi) t.intervals
let cpi_variance t = Stats.Describe.variance (cpis t)

let dataset t =
  Rtree.Dataset.make ~rows:(Array.map (fun iv -> iv.eipv) t.intervals) ~y:(cpis t)

let points t = Array.map (fun iv -> iv.eipv) t.intervals
