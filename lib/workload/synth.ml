module Rng = Stats.Rng
module Sink = Dbengine.Sink

type pattern = Sequential | Strided of int | Random | Chase

type modulation = Steady | Walk of { step : float; lo : float; hi : float }

type phase = {
  label : string;
  region : int;
  n_eips : int;
  eip_skew : float;
  work_bytes : int;
  pattern : pattern;
  refs_per_kinstr : float;
  hot_frac : float;
  branches_per_kinstr : float;
  branch_entropy : float;
  duration_quanta : int * int;
  rate_mod : modulation;
  work_walk : int;
}

let phase ~label ~region ~n_eips ?(eip_skew = 1.0) ~work_bytes ~pattern
    ?(refs_per_kinstr = 350.0) ?(hot_frac = 0.9) ?(branches_per_kinstr = 120.0)
    ?(branch_entropy = 0.05) ~duration_quanta ?(rate_mod = Steady) ?(work_walk = 0) () =
  if work_bytes <= 0 then invalid_arg "Synth.phase: work_bytes must be positive";
  let lo, hi = duration_quanta in
  if lo <= 0 || hi < lo then invalid_arg "Synth.phase: bad duration range";
  if hot_frac < 0.0 || hot_frac > 1.0 then invalid_arg "Synth.phase: hot_frac out of [0,1]";
  {
    label;
    region;
    n_eips;
    eip_skew;
    work_bytes;
    pattern;
    refs_per_kinstr;
    hot_frac;
    branches_per_kinstr;
    branch_entropy;
    duration_quanta;
    rate_mod;
    work_walk;
  }

(* Per-phase mutable execution state. *)
type phase_state = {
  base : int;  (* base address of the full footprint *)
  footprint : int;  (* bytes: work_bytes * max 1 work_walk *)
  mutable cursor : int;  (* sequential/strided position *)
  mutable window : int;  (* start of the sliding working-set window *)
  mutable rate : float;  (* current rate-modulation factor *)
}

let max_refs_per_quantum = 384
let max_branches_per_quantum = 192
let line = 64

let thread rng ~code ~space ~phases ~tid =
  if Array.length phases = 0 then invalid_arg "Synth.thread: no phases";
  Array.iter
    (fun p ->
      if not (Code_map.registered code ~region:p.region) then
        Code_map.register code ~region:p.region ~n_eips:p.n_eips ~skew:p.eip_skew ())
    phases;
  let rng = Rng.split rng in
  let states =
    Array.map
      (fun p ->
        let footprint = p.work_bytes * max 1 p.work_walk in
        {
          base = Dbengine.Addr_space.alloc space ~bytes:footprint;
          footprint;
          cursor = 0;
          window = 0;
          rate = 1.0;
        })
      phases
  in
  let cur = ref 0 in
  let remaining = ref 0 in
  let pick_duration p =
    let lo, hi = p.duration_quanta in
    Rng.int_in rng lo hi
  in
  let advance_phase () =
    cur := (!cur + 1) mod Array.length phases;
    remaining := pick_duration phases.(!cur);
    (* Slide the working window on every phase entry when walking. *)
    let p = phases.(!cur) and s = states.(!cur) in
    if p.work_walk > 1 then
      s.window <- Rng.int rng (max 1 (s.footprint - p.work_bytes))
  in
  remaining := pick_duration phases.(0);
  let fill sink ~budget =
    let p = phases.(!cur) and s = states.(!cur) in
    Sink.instrs sink ~region:p.region budget;
    (* Rate modulation: a bounded multiplicative random walk, invisible in
       the code stream. *)
    (match p.rate_mod with
    | Steady -> ()
    | Walk { step; lo; hi } ->
        let factor = 1.0 +. ((Rng.float rng 2.0 -. 1.0) *. step) in
        s.rate <- Float.max lo (Float.min hi (s.rate *. factor)));
    let kinstr = float_of_int budget /. 1000.0 in
    (* Miss-candidate stream: hot references are L1 hits by construction
       and are not emitted; a cold sequential stream only presents one
       candidate per cache line (8-byte elements). *)
    let cold = p.refs_per_kinstr *. kinstr *. s.rate *. (1.0 -. p.hot_frac) in
    let candidates =
      match p.pattern with
      | Sequential -> cold /. 8.0
      | Strided st -> cold *. Float.min 1.0 (float_of_int st /. float_of_int line)
      | Random | Chase -> cold
    in
    let want_refs = int_of_float candidates in
    let emit_refs = min want_refs max_refs_per_quantum in
    if want_refs > emit_refs then Sink.account_refs sink (want_refs - emit_refs);
    let span = p.work_bytes in
    (* Per-quantum slide of the walking window, so consecutive intervals
       see different cache-residency. *)
    if p.work_walk > 1 && Rng.bernoulli rng 0.15 then
      s.window <- (s.window + (span / 4)) mod max 1 (s.footprint - span);
    let stride = match p.pattern with Sequential | Strided _ -> line | Random | Chase -> 0 in
    (* Keep the sampled stream's spatial density equal to the logical
       stream's: advance by (candidates / emitted) lines per sample. *)
    let scale = if emit_refs = 0 then 1 else Int.max 1 (want_refs / Int.max 1 emit_refs) in
    let lines = Int.max 1 (span / line) in
    for _ = 1 to emit_refs do
      let addr =
        if stride > 0 then begin
          s.cursor <- (s.cursor + (stride * scale)) mod span;
          s.base + s.window + s.cursor
        end
        else s.base + s.window + (Rng.int rng lines * line)
      in
      (* The draw a store flag took when stores were recorded: the
         stream's draw order is output, so it stays. *)
      ignore (Rng.bits rng : int);
      Sink.data_ref sink addr
    done;
    let want_branches = int_of_float (p.branches_per_kinstr *. kinstr) in
    let emit_branches = min want_branches max_branches_per_quantum in
    if want_branches > emit_branches then Sink.account_branches sink (want_branches - emit_branches);
    let pc_base = (p.region * 1024) + 512 in
    for i = 1 to emit_branches do
      let taken = if Rng.bernoulli rng p.branch_entropy then Rng.bool rng else true in
      Sink.branch sink ~pc:(pc_base + (i land 7 * 8)) ~taken
    done;
    decr remaining;
    if !remaining <= 0 then advance_phase ();
    `Ok
  in
  { Model.tid; fill }
