val keep : unit -> int
val gone : unit -> int

module Inner : sig
  val live : unit -> int
  val lost : unit -> int
end
