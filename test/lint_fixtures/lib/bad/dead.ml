(* G004 fixture: [keep] is referenced from Use, [gone] is exported but
   never referenced anywhere — the dead-export audit must flag it.  The
   audit descends into nested signatures: [Inner.live] is used from Use,
   [Inner.lost] only from inside this module, so it is flagged too. *)
let keep () = 1
let gone () = 2

module Inner = struct
  let live () = 3
  let lost () = 4
end

let _ = Inner.lost
