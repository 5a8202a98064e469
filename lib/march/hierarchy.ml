type level = L1 | L2 | L3 | Mem

type t = {
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t option;
}

let of_geom (g : Config.geometry) =
  Cache.create ~size_bytes:g.size_bytes ~ways:g.ways ~line_bytes:g.line_bytes

let create (cfg : Config.t) =
  Config.validate cfg;
  {
    l1i = of_geom cfg.l1i;
    l1d = of_geom cfg.l1d;
    l2 = of_geom cfg.l2;
    l3 = Option.map of_geom cfg.l3;
  }

let beyond_l1 t addr =
  if Cache.access t.l2 addr then L2
  else
    match t.l3 with
    | Some l3 -> if Cache.access l3 addr then L3 else Mem
    | None -> Mem

let access_data t addr = if Cache.access t.l1d addr then L1 else beyond_l1 t addr

let access_inst t addr = if Cache.access t.l1i addr then L1 else beyond_l1 t addr

let install t addr =
  ignore (Cache.access t.l2 addr : bool);
  match t.l3 with Some l3 -> ignore (Cache.access l3 addr : bool) | None -> ()

let data_latency (cfg : Config.t) = function
  | L1 -> 0.0
  | L2 -> cfg.lat_l2
  | L3 -> cfg.lat_l3
  | Mem -> cfg.lat_mem

let l1d t = t.l1d
