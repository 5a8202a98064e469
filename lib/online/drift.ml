module Page_hinkley = struct
  (* Two-sided Page–Hinkley: track the cumulative deviation of x from the
     running mean (plus/minus the tolerance delta) and alarm when it
     strays more than lambda from its running extremum. *)
  type t = {
    delta : float;
    lambda : float;
    mutable n : int;
    mutable mean : float;
    mutable up : float;  (* cumulative positive deviation statistic *)
    mutable up_min : float;
    mutable down : float;  (* cumulative negative deviation statistic *)
    mutable down_max : float;
    mutable alarms : int;
  }

  let create ?(delta = 0.05) ?(lambda = 25.0) () =
    if lambda <= 0.0 then invalid_arg "Page_hinkley.create: lambda must be positive";
    { delta; lambda; n = 0; mean = 0.0; up = 0.0; up_min = 0.0; down = 0.0; down_max = 0.0;
      alarms = 0 }

  let reset t =
    t.n <- 0;
    t.mean <- 0.0;
    t.up <- 0.0;
    t.up_min <- 0.0;
    t.down <- 0.0;
    t.down_max <- 0.0

  let observe t x =
    t.n <- t.n + 1;
    t.mean <- t.mean +. ((x -. t.mean) /. float_of_int t.n);
    t.up <- t.up +. (x -. t.mean -. t.delta);
    if t.up < t.up_min then t.up_min <- t.up;
    t.down <- t.down +. (x -. t.mean +. t.delta);
    if t.down > t.down_max then t.down_max <- t.down;
    let alarm = t.up -. t.up_min > t.lambda || t.down_max -. t.down > t.lambda in
    if alarm then begin
      t.alarms <- t.alarms + 1;
      reset t
    end;
    alarm

  let alarms t = t.alarms
end

(* Working-set signatures hash EIPs into this many bits; an interval whose
   new-bit fraction exceeds [signature_threshold] starts a new phase, and
   one with fewer than [signature_min_population] set bits abstains. *)
let signature_bits = 1024
let signature_threshold = 0.5
let signature_min_population = 4

type t = {
  ph : Page_hinkley.t;
  samples_per_interval : int;
  mutable phase_signature : Bytes.t option;  (* union over the current phase *)
  mutable ph_latched : bool;
  mutable events : int;
}

let create ~samples_per_interval =
  {
    ph = Page_hinkley.create ();
    samples_per_interval;
    phase_signature = None;
    ph_latched = false;
    events = 0;
  }

let observe_sample t ~cpi =
  if Page_hinkley.observe t.ph cpi then t.ph_latched <- true

let popcount s =
  let n = ref 0 in
  Bytes.iter (fun c -> if c = '\001' then incr n) s;
  !n

(* Fraction of [s]'s set bits absent from the accumulated phase
   signature.  One sampled interval sees only a random subset of its
   phase's hot EIPs, so consecutive-interval Hamming distance is noise;
   against the union of everything this phase has shown, a same-phase
   interval scores low and a genuinely new working set scores near 1. *)
let new_bit_fraction phase s =
  let nw = ref 0 and tot = ref 0 in
  Bytes.iteri
    (fun j c ->
      if c = '\001' then begin
        incr tot;
        if Bytes.get phase j <> '\001' then incr nw
      end)
    s;
  if !tot = 0 then 0.0 else float_of_int !nw /. float_of_int !tot

let observe_interval t iv =
  let s =
    Fuzzy.Phase_detect.interval_signature ~bits:signature_bits
      ~samples_per_interval:t.samples_per_interval iv
  in
  let code_change =
    (* A near-empty signature (few repeatedly-hit EIPs, e.g. an OLTP mix
       whose samples scatter over a huge code footprint) carries no
       working-set evidence either way: abstain rather than alarm. *)
    if popcount s < signature_min_population then false
    else
      match t.phase_signature with
      | None ->
          t.phase_signature <- Some (Bytes.copy s);
          false
      | Some phase ->
          if new_bit_fraction phase s > signature_threshold then begin
            t.phase_signature <- Some (Bytes.copy s);
            true
          end
          else begin
            (* Same phase: grow the union so jitter keeps shrinking. *)
            Bytes.iteri (fun j c -> if c = '\001' then Bytes.set phase j '\001') s;
            false
          end
  in
  let drift = code_change || t.ph_latched in
  t.ph_latched <- false;
  if drift then t.events <- t.events + 1;
  drift

let events t = t.events
