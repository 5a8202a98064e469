(* Exact LRU in O(1) per access.  A hash index finds a page's slot: each
   bucket heads a chain threaded through the slots by [chain].  An
   intrusive doubly-linked list through the same slots keeps recency
   order (the shape of [Dbengine.Cache_lru]).  Free slots are taken in
   index order; on a full TLB the victim is the list tail (DESIGN.md
   §12a). *)
type t = {
  page_bits : int;
  pages : int array;  (* slot -> page *)
  chain : int array;  (* slot -> next slot in its bucket; -1 ends it *)
  prev : int array;  (* slot -> more recent slot; -1 at the head *)
  next : int array;  (* slot -> less recent slot; -1 at the tail *)
  buckets : int array;  (* first slot of each bucket; -1 = empty *)
  bucket_bits : int;
  mutable head : int;  (* most recently used slot *)
  mutable tail : int;  (* least recently used slot *)
  mutable used : int;  (* slots [0, used) hold pages *)
  mutable misses : int;
}

let log2 x =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 x

let create ~entries ~page_bytes =
  if entries <= 0 then invalid_arg "Tlb.create: entries must be positive";
  if page_bytes <= 0 || page_bytes land (page_bytes - 1) <> 0 then
    invalid_arg "Tlb.create: page size must be a power of two";
  (* At least two buckets per entry keeps chains short. *)
  let bucket_bits = 1 + log2 (2 * entries - 1) in
  {
    page_bits = log2 page_bytes;
    pages = Array.make entries (-1);
    chain = Array.make entries (-1);
    prev = Array.make entries (-1);
    next = Array.make entries (-1);
    buckets = Array.make (1 lsl bucket_bits) (-1);
    bucket_bits;
    head = -1;
    tail = -1;
    used = 0;
    misses = 0;
  }

(* Fibonacci hashing: the top bits of the page times an odd constant
   near 2^63 divided by the golden ratio. *)
let bucket t page = (page * 0x1E3779B97F4A7C15) lsr (Sys.int_size - t.bucket_bits)

let unchain t s =
  let b = bucket t t.pages.(s) in
  if t.buckets.(b) = s then t.buckets.(b) <- t.chain.(s)
  else begin
    let p = ref t.buckets.(b) in
    while t.chain.(!p) <> s do
      p := t.chain.(!p)
    done;
    t.chain.(!p) <- t.chain.(s)
  end

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p

let push_front t s =
  t.prev.(s) <- -1;
  t.next.(s) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- s;
  t.head <- s;
  if t.tail < 0 then t.tail <- s

let access t addr =
  let page = addr asr t.page_bits in
  let b = bucket t page in
  let s = ref t.buckets.(b) in
  while !s >= 0 && t.pages.(!s) <> page do
    s := t.chain.(!s)
  done;
  let s = !s in
  if s >= 0 then begin
    if s <> t.head then begin
      unlink t s;
      push_front t s
    end;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    let s =
      if t.used < Array.length t.pages then begin
        t.used <- t.used + 1;
        t.used - 1
      end
      else begin
        let victim = t.tail in
        unchain t victim;
        unlink t victim;
        victim
      end
    in
    t.pages.(s) <- page;
    t.chain.(s) <- t.buckets.(b);
    t.buckets.(b) <- s;
    push_front t s;
    false
  end

let misses t = t.misses
