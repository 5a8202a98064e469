type t = { pages : Stats.Lru.t; page_bytes : int }

let create ~pages ~page_bytes =
  if pages <= 0 then invalid_arg "Bufcache.create: pages must be positive";
  { pages = Stats.Lru.create ~capacity:pages; page_bytes }

let touch t addr = Stats.Lru.access t.pages (addr / t.page_bytes)

let hit_ratio t =
  let hits = Stats.Lru.hits t.pages in
  let a = hits + Stats.Lru.misses t.pages in
  if a = 0 then 1.0 else float_of_int hits /. float_of_int a
