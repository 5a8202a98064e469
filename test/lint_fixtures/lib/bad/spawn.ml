(* Fixture: D004 Domain.spawn outside lib/parallel -- waived by the
   floating attribute at the end of this file. *)
let go f = Domain.spawn f

[@@@lint.allow "D004"]
