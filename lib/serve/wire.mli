(** Versioned, checksummed, length-prefixed binary framing for the
    analysis server, plus the deterministic primitive codec the
    {!Protocol} messages are built from.

    A frame is a fixed 14-byte header followed by the payload:

    {v
      bytes 0-3    magic "FZRP"
      bytes 4-5    protocol version (big-endian u16)
      bytes 6-9    payload length  (big-endian u32)
      bytes 10-13  Adler-32 checksum of the payload (big-endian u32)
      bytes 14..   payload
    v}

    The checksum is {!Stats.Checksum.adler32}, shared with the text
    archives; the header stays binary and comes first so a reader can
    refuse an oversized frame before reading its payload.

    Every integer is written big-endian with a fixed width and floats are
    written as their IEEE-754 bit patterns, so encoding is a pure
    function of the value — the same message encodes to the same bytes
    on every platform, which is what lets the test suite compare server
    responses with [cmp]. *)

val version : int
(** Current protocol version, written into every frame header. *)

val header_len : int
(** 14 bytes. *)

val default_max_payload : int
(** 16 MiB — frames declaring more are rejected before any allocation. *)

type error =
  | Bad_magic
  | Bad_version of int  (** version found in the header *)
  | Oversized of int  (** declared payload length above the cap *)
  | Bad_checksum
  | Truncated  (** fewer bytes than the header declares (or no header) *)

val error_to_string : error -> string

val encode : string -> string
(** [encode payload] is the full frame: header followed by [payload]. *)

val decode : ?max_payload:int -> string -> (string, error) result
(** Decode a complete frame back to its payload.  Rejects bad magic,
    foreign versions, oversized declarations, length mismatches and
    checksum failures. *)

val decode_header : ?max_payload:int -> string -> (int * int, error) result
(** [decode_header bytes] validates the 14-byte header at the start of
    [bytes] and returns [(payload_len, checksum)].  [Error Truncated] if
    fewer than {!header_len} bytes are given. *)

val check_payload : string -> checksum:int -> bool

(** {1 Blocking frame transport}

    Used by the client library and the tests; the server reads frames
    incrementally through {!Session}. *)

val write_frame : Unix.file_descr -> string -> unit
(** Frame the payload and write it fully to a blocking descriptor
    ([Unix] write loop, retried on [EINTR]). *)

val read_frame : ?max_payload:int -> Unix.file_descr -> (string, error) result
(** Read exactly one frame, blocking; EOF mid-frame is [Truncated]. *)

(** {1 Primitive codec}

    The deterministic little language every {!Protocol} message is
    encoded with.  Readers raise {!Decode_error} on malformed input;
    {!Protocol} catches it at the message boundary. *)

exception Decode_error of string

module Enc : sig
  type t

  val create : unit -> t
  val u8 : t -> int -> unit

  val int : t -> int -> unit
  (** 8-byte big-endian two's complement. *)

  val float : t -> float -> unit
  (** IEEE-754 bit pattern, 8 bytes. *)

  val string : t -> string -> unit
  (** Length-prefixed. *)

  val bool : t -> bool -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  val contents : t -> string
end

module Dec : sig
  type t

  val of_string : string -> t
  val u8 : t -> int
  val int : t -> int
  val float : t -> float
  val string : t -> string
  val bool : t -> bool
  val list : t -> (t -> 'a) -> 'a list
  val expect_end : t -> unit
  (** @raise Decode_error if any input remains. *)
end
