type t = {
  name : string;
  rows : int;
  row_bytes : int;
  base : int;
  page_bytes : int;
}

let page_bytes = 8192

let create space ~name ~rows ~row_bytes =
  if rows <= 0 || row_bytes <= 0 then invalid_arg "Heap.create: rows/row_bytes must be positive";
  let bytes = rows * row_bytes in
  { name; rows; row_bytes; base = Addr_space.alloc space ~bytes; page_bytes }

let addr_of_row t i =
  if i < 0 || i >= t.rows then invalid_arg "Heap.addr_of_row: row out of range";
  t.base + (i * t.row_bytes)
