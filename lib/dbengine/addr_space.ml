type t = { mutable cursor : int }

let page = 16384

let create ?(base = 0x1000_0000) () = { cursor = base }

let alloc t ~bytes =
  if bytes <= 0 then invalid_arg "Addr_space.alloc: bytes must be positive";
  let a = t.cursor in
  let rounded = (bytes + page - 1) / page * page in
  t.cursor <- t.cursor + rounded + page;  (* guard page between regions *)
  a

