type t = { work : float; fe : float; exe : float; other : float }

let zero = { work = 0.0; fe = 0.0; exe = 0.0; other = 0.0 }

let add a b =
  { work = a.work +. b.work; fe = a.fe +. b.fe; exe = a.exe +. b.exe; other = a.other +. b.other }

let scale a s = { work = a.work *. s; fe = a.fe *. s; exe = a.exe *. s; other = a.other *. s }

let total a = a.work +. a.fe +. a.exe +. a.other

let per_instr a ~instrs =
  if instrs <= 0 then invalid_arg "Breakdown.per_instr: instrs must be positive";
  scale a (1.0 /. float_of_int instrs)

let exe_fraction a =
  let t = total a in
  if t <= 0.0 then 0.0 else a.exe /. t

