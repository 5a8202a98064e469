(* Cross-module references that keep the other fixtures' exports alive for
   the G004 audit: everything except Dead.gone and Dead.Inner.lost is
   used from here. *)
let poke pool t xs =
  let n = Alias.count t + Dead.keep () + Dead.Inner.live () in
  let ys = Task.sweep pool xs in
  if n > Array.length ys then Handler.handle ()
