type stream = {
  mutable last_line : int;  (* -1 = free slot *)
  mutable stamp : int;
}

type t = {
  slots : stream array;
  degree : int;
  line_bytes : int;
  mutable tick : int;
}

let create ?(streams = 8) ?(degree = 4) ?(line_bytes = 64) () =
  if streams <= 0 || degree <= 0 then invalid_arg "Prefetch.create: bad parameters";
  {
    slots = Array.init streams (fun _ -> { last_line = -1; stamp = 0 });
    degree;
    line_bytes;
    tick = 0;
  }

let on_miss t addr =
  let line = addr / t.line_bytes in
  t.tick <- t.tick + 1;
  (* Does this miss extend a tracked stream?  Allow a gap of one line so
     interleaved accesses (two 64B halves of a 128B fetch, or a second
     stream) do not break detection. *)
  let rec find i =
    if i >= Array.length t.slots then None
    else
      let s = t.slots.(i) in
      if s.last_line >= 0 && line > s.last_line && line - s.last_line <= 2 then Some s
      else find (i + 1)
  in
  match find 0 with
  | Some s ->
      s.last_line <- line;
      s.stamp <- t.tick;
      List.init t.degree (fun k -> (line + 1 + k) * t.line_bytes)
  | None ->
      (* Allocate a tracker, evicting the least recently advanced. *)
      let victim = ref t.slots.(0) in
      Array.iter (fun s -> if s.stamp < !victim.stamp then victim := s) t.slots;
      !victim.last_line <- line;
      !victim.stamp <- t.tick;
      []
