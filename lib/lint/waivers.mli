(** Waivers: [\[@lint.allow "Dxxx"\]] attributes, the one way to waive a
    finding.  In an [.ml] the attribute goes on the offending expression or
    an enclosing value binding; in an [.mli] on a [val] (nested
    [module X : sig ... end] vals included); a floating
    [\[@@@lint.allow "..."\]] waives the whole file. *)

val apply :
  Rule.source list -> Rule.finding list -> Rule.finding list * Rule.finding list
(** [(kept, waived)]: partition findings by the attributes in [sources]. *)
