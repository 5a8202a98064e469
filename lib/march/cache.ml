(* Each set's tags are kept in recency order: way 0 is the most recently
   used line and way [ways - 1] the least.  A hit rotates its line to the
   front; a miss drops the last way and inserts at the front.  Never-used
   ways hold -1 and sit behind every valid way, so they are filled before
   any valid line is evicted (DESIGN.md §12a). *)
type t = {
  sets : int;
  ways : int;
  line_bits : int;
  line_bytes : int;
  tags : int array;  (* sets * ways, each set in recency order; -1 = invalid *)
}

let is_pow2 x = x > 0 && x land (x - 1) = 0

let log2 x =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v lsr 1) in
  go 0 x

let create ~size_bytes ~ways ~line_bytes =
  if not (is_pow2 line_bytes) then invalid_arg "Cache.create: line size must be a power of two";
  if ways <= 0 then invalid_arg "Cache.create: ways must be positive";
  if size_bytes <= 0 || size_bytes mod (ways * line_bytes) <> 0 then
    invalid_arg "Cache.create: size must be a positive multiple of ways*line";
  let sets = size_bytes / (ways * line_bytes) in
  if not (is_pow2 sets) then invalid_arg "Cache.create: set count must be a power of two";
  {
    sets;
    ways;
    line_bits = log2 line_bytes;
    line_bytes;
    tags = Array.make (sets * ways) (-1);
  }

(* [base] is never negative, since [sets - 1] is not, so one check that
   the set's last way is inside [tags] covers every way the loop reads.
   It raises in place: a call to [invalid_arg] here would make the
   compiler spill the walk's live values around it on every reference. *)
let[@inline] access t addr =
  let line = addr asr t.line_bits in
  let tags = t.tags in
  let base = (line land (t.sets - 1)) * t.ways in
  let last = base + t.ways - 1 in
  if last >= Array.length tags then raise (Invalid_argument "Cache.access: set out of range");
  let front = Array.unsafe_get tags base in
  if front = line then true
  else begin
    (* One pass: move each way back by one until the line turns up (a
       hit: its way takes the tag carried from the way before it) or the
       last way falls off the end (a miss). *)
    let carry = ref front and w = ref (base + 1) in
    while !w <= last && Array.unsafe_get tags !w <> line do
      let cur = Array.unsafe_get tags !w in
      Array.unsafe_set tags !w !carry;
      carry := cur;
      incr w
    done;
    let hit = !w <= last in
    if hit then Array.unsafe_set tags !w !carry;
    Array.unsafe_set tags base line;
    hit
  end

(* The levels are walked here, next to [access], and a quantum's
   references are walked in one call, so a reference costs no call across
   modules however deep it goes (DESIGN.md §12a). *)
let[@inline] walk path addr =
  let n = Array.length path in
  let i = ref 0 in
  while !i < n && not (access (Array.unsafe_get path !i) addr) do
    incr i
  done;
  !i

let walk_batch path addrs ~from ~upto levels ~stop_at_memory =
  if from < 0 || upto > Array.length addrs || upto > Bytes.length levels then
    raise (Invalid_argument "Cache.walk_batch: range out of bounds");
  let mem = Array.length path in
  let i = ref from and stop = ref upto in
  while !i < !stop do
    let lvl = walk path (Array.unsafe_get addrs !i) in
    Bytes.unsafe_set levels !i (Char.unsafe_chr lvl);
    incr i;
    if stop_at_memory && lvl = mem then stop := !i
  done;
  !i

let probe t addr =
  let line = addr asr t.line_bits in
  let base = (line land (t.sets - 1)) * t.ways in
  let w = ref 0 in
  while !w < t.ways && t.tags.(base + !w) <> line do
    incr w
  done;
  !w < t.ways

let sets t = t.sets
let ways t = t.ways
let line_bytes t = t.line_bytes
