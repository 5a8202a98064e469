(* A hash index finds a key's slot: each bucket heads a chain threaded
   through the slots by [chain].  An intrusive doubly-linked list through
   the same slots keeps recency order.  Free slots are taken in index
   order; when all are used the victim is the list tail.  In an exact LRU
   the slot a key sits in never affects the hit/miss sequence, so the
   layout is free to serve speed (DESIGN.md §12a). *)
type t = {
  keys : int array;  (* slot -> key *)
  chain : int array;  (* slot -> next slot in its bucket; -1 ends it *)
  prev : int array;  (* slot -> more recent slot; -1 at the head *)
  next : int array;  (* slot -> less recent slot; -1 at the tail *)
  buckets : int array;  (* first slot of each bucket; -1 = empty *)
  bucket_bits : int;
  mutable head : int;  (* most recently used slot *)
  mutable tail : int;  (* least recently used slot *)
  mutable used : int;  (* slots [0, used) hold keys *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
  (* At least two buckets per slot keeps chains short. *)
  let rec bits b = if 1 lsl b >= 2 * capacity then b else bits (b + 1) in
  let bucket_bits = bits 1 in
  {
    keys = Array.make capacity (-1);
    chain = Array.make capacity (-1);
    prev = Array.make capacity (-1);
    next = Array.make capacity (-1);
    buckets = Array.make (1 lsl bucket_bits) (-1);
    bucket_bits;
    head = -1;
    tail = -1;
    used = 0;
  }

(* Fibonacci hashing: the top bits of the key times an odd constant near
   2^63 divided by the golden ratio. *)
let[@inline] bucket t key = (key * 0x1E3779B97F4A7C15) lsr (Sys.int_size - t.bucket_bits)

let[@inline] unchain t s =
  let b = bucket t t.keys.(s) in
  if t.buckets.(b) = s then t.buckets.(b) <- t.chain.(s)
  else begin
    let p = ref t.buckets.(b) in
    while t.chain.(!p) <> s do
      p := t.chain.(!p)
    done;
    t.chain.(!p) <- t.chain.(s)
  end

let[@inline] unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p

let[@inline] push_front t s =
  t.prev.(s) <- -1;
  t.next.(s) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- s;
  t.head <- s;
  if t.tail < 0 then t.tail <- s

let[@inline] access t key =
  let b = bucket t key in
  let s = ref t.buckets.(b) in
  while !s >= 0 && t.keys.(!s) <> key do
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
    let s =
      if t.used < Array.length t.keys then begin
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
    t.keys.(s) <- key;
    t.chain.(s) <- t.buckets.(b);
    t.buckets.(b) <- s;
    push_front t s;
    false
  end

(* A key already at the head is a hit that changes nothing, so it is
   answered before hashing; every other key is [access]'s, inlined with
   everything it calls, so the loop makes no call that would make the
   compiler spill its live values (nor does the check before it). *)
let misses t ~shift addrs n =
  if n < 0 || n > Array.length addrs then raise (Invalid_argument "Lru.misses: count out of range");
  let m = ref 0 in
  for i = 0 to n - 1 do
    let key = addrs.(i) asr shift in
    let h = t.head in
    if not (h >= 0 && t.keys.(h) = key) && not (access t key) then incr m
  done;
  !m
