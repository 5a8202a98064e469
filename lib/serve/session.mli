(** Per-connection server state: the incremental frame decoder, the
    in-order response ledger and the connection's optional streaming
    pipeline.

    Responses may be {e computed} out of order (heavy requests fan out
    onto the pool), but they are {e written} strictly in request order:
    every parsed request is assigned the next sequence number and the
    writer only sends the frame for [next_to_write].  That per-connection
    FIFO discipline — plus response payloads being pure functions of the
    request — is what makes concurrent clients observe byte-identical
    conversations at every [--jobs] value. *)

type t

val create : id:int -> peer:string -> Unix.file_descr -> t
(** [peer] is the connection's admission identity: the client IP for TCP
    connections (so one host shares one token bucket), or a per-connection
    label for Unix-socket peers. *)

val id : t -> int
val fd : t -> Unix.file_descr
val peer : t -> string

(** {1 Reading} *)

val feed : t -> bytes -> int -> unit
(** Append the first [n] bytes just read from the socket.  Once the
    session is closing ({!mark_close}) the bytes are dropped: nothing
    decodes a closing session's input, and a peer that keeps sending
    without reading its answers must not grow server memory. *)

val input : t -> bytes * int
(** The buffered input not yet consumed as frames, and its length, for
    a connection that parses its own format (a scrape's HTTP head).  The
    bytes are the session's own buffer: read them before the next
    {!feed}. *)

val next_frame : t -> max_payload:int -> (string option, Wire.error) result
(** Extract the next complete frame's payload, if one is buffered.
    [Ok None] means "need more bytes".  A checksum/magic/version/size
    error poisons the connection (the server answers [Bad_request] and
    closes): resynchronising inside a corrupt byte stream is guesswork. *)

(** {1 In-order responses} *)

val alloc_seq : t -> int
(** Sequence number for a request just parsed. *)

val put_response : t -> seq:int -> string -> unit
(** Record the encoded response frame for [seq] (computed in any order). *)

val next_write : t -> (string * int) option
(** The frame for the lowest unwritten sequence number plus the offset
    of its first unwritten byte, if ready.  The offset is non-zero when
    a previous non-blocking write sent only part of the frame. *)

val advance : t -> int -> unit
(** Record that [n] more bytes of the current {!next_write} frame were
    written; once the whole frame is out, move to the next sequence
    number.  A no-op when no frame is in flight — the writer only calls
    it straight after a [Some] from {!next_write}, and total beats a
    raise that would have to cross the event loop (G003). *)

val has_pending : t -> bool
(** Responses still owed (allocated but unwritten sequence numbers). *)

val has_output : t -> bool
(** Bytes ready to write right now (the next in-order frame is
    computed).  Implies {!has_pending}; the converse needn't hold while
    the response is still being computed on the pool. *)

(** {1 Pipeline and lifecycle} *)

val pipeline : t -> Online.Pipeline.t option
val open_pipeline : t -> Online.Pipeline.t -> unit
val close_pipeline : t -> unit

val mark_close : t -> unit
(** Close once every owed response has been written. *)

val closing : t -> bool

val mark_eof : t -> unit
(** The peer sent EOF while responses are still owed: {!mark_close}, and
    stop reading, since the socket would only report EOF again. *)

val eof : t -> bool
