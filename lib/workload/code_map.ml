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

let code_lines t rng ~region_instrs ~max_lines =
  let total = Array.fold_left (fun acc (_, w) -> acc + w) 0 region_instrs in
  if total = 0 then ([||], 0.0)
  else begin
    let lines = ref [] and count = ref 0 in
    Array.iter
      (fun (region, w) ->
        let e = entry t region in
        (* This region's share of the line budget, at least 1 sample. *)
        let share = Int.max 1 (max_lines * w / total) in
        for _ = 1 to share do
          if !count < max_lines then begin
            let eip = e.base + (Dist.categorical_draw e.sampler rng * eip_stride) in
            lines := eip land lnot 63 :: !lines;
            incr count
          end
        done)
      region_instrs;
    let fetch_events = float_of_int total /. instrs_per_line_fetch in
    let weight = if !count = 0 then 0.0 else fetch_events /. float_of_int !count in
    (Array.of_list !lines, weight)
  end
