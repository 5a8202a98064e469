module Rng = Stats.Rng
module Dist = Stats.Dist

(* Address layout: region r owns EIPs [code_base + r*2^20, ...); EIPs are
   16 bytes apart (bundle-sized), so a region holds at most 65536 EIPs. *)
let code_base = 0x4000_0000
let region_shift = 20
let eip_stride = 16
let max_eips_per_region = 1 lsl (region_shift - 4)

let instrs_per_line_fetch = 30.0

type entry = {
  base : int;
  sampler : Dist.categorical;
      (* popularity over EIP indices; also used for line sampling *)
}

type t = { entries : (int, entry) Hashtbl.t }

let create () = { entries = Hashtbl.create 64 }

let register t ~region ~n_eips ?(skew = 1.0) () =
  if Hashtbl.mem t.entries region then
    invalid_arg (Printf.sprintf "Code_map.register: region %d already registered" region);
  if n_eips <= 0 || n_eips > max_eips_per_region then
    invalid_arg "Code_map.register: n_eips out of range";
  if region < 0 then invalid_arg "Code_map.register: negative region";
  let weights = Array.init n_eips (fun k -> 1.0 /. Float.pow (float_of_int (k + 1)) skew) in
  (* Scatter popularity ranks across the region so hot EIPs are not all on
     the same cache lines. *)
  let perm_weights = Array.make n_eips 0.0 in
  Array.iteri (fun k w -> perm_weights.(k * 7919 mod n_eips) <- w) weights;
  Hashtbl.add t.entries region
    {
      base = code_base + (region lsl region_shift);
      sampler = Dist.categorical perm_weights;
    }

let registered t ~region = Hashtbl.mem t.entries region

let union ?(shared = []) a b =
  let t = create () in
  let add_all src =
    List.iter
      (fun (region, e) ->
        match Hashtbl.find_opt t.entries region with
        | None -> Hashtbl.add t.entries region e
        | Some _ when List.mem region shared -> ()
        | Some _ ->
            invalid_arg
              (Printf.sprintf "Code_map.union: region %d registered in both maps" region))
      (Stats.Det.hashtbl_bindings src.entries)
  in
  add_all a;
  add_all b;
  t

let entry t region =
  match Hashtbl.find_opt t.entries region with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Code_map: region %d not registered" region)

let draw_eip t rng ~region =
  let e = entry t region in
  e.base + (Dist.categorical_draw e.sampler rng * eip_stride)

let eip_region eip = (eip - code_base) lsr region_shift

(* The lines are drawn region by region into [lines] and then reversed
   in place: the quantum replays them newest first, the order the list
   this replaced was consed in. *)
let code_lines t rng ~region_instrs ~lines =
  let max_lines = Array.length lines in
  let total = ref 0 in
  for k = 0 to Array.length region_instrs - 1 do
    total := !total + snd region_instrs.(k)
  done;
  let total = !total and count = ref 0 in
  if total > 0 then
    for k = 0 to Array.length region_instrs - 1 do
      let region, w = region_instrs.(k) in
      let e = entry t region in
      (* This region's share of the line budget, at least 1 sample. *)
      let share = Int.max 1 (max_lines * w / total) in
      for _ = 1 to share do
        if !count < max_lines then begin
          let eip = e.base + (Dist.categorical_draw e.sampler rng * eip_stride) in
          lines.(!count) <- eip land lnot 63;
          incr count
        end
      done
    done;
  let n = !count in
  for k = 0 to (n / 2) - 1 do
    let x = lines.(k) in
    lines.(k) <- lines.(n - 1 - k);
    lines.(n - 1 - k) <- x
  done;
  n

let line_weight ~instrs ~lines =
  if lines = 0 then 0.0
  else float_of_int instrs /. instrs_per_line_fetch /. float_of_int lines
