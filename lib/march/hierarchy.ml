type level = L1 | L2 | L3 | Mem

(* A data or instruction reference walks its path with [Cache.walk]; the
   walk's index is the level that served it, and [lat] maps the index to
   its stall cycles.  [outer] is the shared L2 (and L3), where prefetches
   land. *)
type t = {
  data : Cache.t array;
  inst : Cache.t array;
  outer : Cache.t array;
  lat : float array;
}

let of_geom (g : Config.geometry) =
  Cache.create ~size_bytes:g.size_bytes ~ways:g.ways ~line_bytes:g.line_bytes

let create (cfg : Config.t) =
  Config.validate cfg;
  let l1i = of_geom cfg.l1i and l1d = of_geom cfg.l1d and l2 = of_geom cfg.l2 in
  let outer, lat =
    match cfg.l3 with
    | Some g -> ([| l2; of_geom g |], [| 0.0; cfg.lat_l2; cfg.lat_l3; cfg.lat_mem |])
    | None -> ([| l2 |], [| 0.0; cfg.lat_l2; cfg.lat_mem |])
  in
  { data = Array.append [| l1d |] outer; inst = Array.append [| l1i |] outer; outer; lat }

let access_data t addr =
  let i = Cache.walk t.data addr in
  if i = 0 then L1 else if i = Array.length t.data then Mem else if i = 1 then L2 else L3

let install t addr = Array.iter (fun c -> ignore (Cache.access c addr : bool)) t.outer

let data_path t = t.data
let inst_path t = t.inst
let latencies t = t.lat
let l1d t = t.data.(0)
