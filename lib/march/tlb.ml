type t = { page_bits : int; pages : Stats.Lru.t }

let create ~entries ~page_bytes =
  if entries <= 0 then invalid_arg "Tlb.create: entries must be positive";
  if page_bytes <= 0 || page_bytes land (page_bytes - 1) <> 0 then
    invalid_arg "Tlb.create: page size must be a power of two";
  let rec log2 acc v = if v <= 1 then acc else log2 (acc + 1) (v lsr 1) in
  { page_bits = log2 0 page_bytes; pages = Stats.Lru.create ~capacity:entries }

let access t addr = Stats.Lru.access t.pages (addr asr t.page_bits)
