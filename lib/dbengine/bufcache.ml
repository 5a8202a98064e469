type t = { pages : Stats.Lru.t; page_bytes : int }

let create ~pages ~page_bytes =
  if pages <= 0 then invalid_arg "Bufcache.create: pages must be positive";
  { pages = Stats.Lru.create ~capacity:pages; page_bytes }

let touch t addr = Stats.Lru.access t.pages (addr / t.page_bytes)
