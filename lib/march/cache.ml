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

let access t addr =
  let line = addr asr t.line_bits in
  let tags = t.tags in
  let base = (line land (t.sets - 1)) * t.ways in
  let front = tags.(base) in
  if front = line then true
  else begin
    (* One pass: move each way back by one until the line turns up (a
       hit) or the last way falls off the end (a miss). *)
    let last = base + t.ways - 1 in
    let carry = ref front and w = ref (base + 1) and found = ref false in
    while (not !found) && !w <= last do
      let cur = tags.(!w) in
      tags.(!w) <- !carry;
      if cur = line then found := true
      else begin
        carry := cur;
        incr w
      end
    done;
    tags.(base) <- line;
    !found
  end

(* The levels are walked here, next to [access], so a reference costs one
   call into this module however deep it goes (DESIGN.md §12a). *)
let walk path addr =
  let n = Array.length path in
  let i = ref 0 in
  while !i < n && not (access path.(!i) addr) do
    incr i
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
