(** The one scanner behind every temporal literal. Each entry point
    reads the whole string, with spaces and tabs allowed either side,
    in one pass.

    @raise Parse_error on malformed input, naming what was expected and
    its position. *)

exception Parse_error of string

(** A span's seconds. *)
val span : string -> int

(** A chronon's unix seconds. *)
val chronon : string -> int

(** An instant's encoding (see {!Instant}). *)
val instant : string -> int

(** A period's two endpoint encodings. *)
val period : string -> int array

(** An element's raw endpoint encodings, in order as written. *)
val element : string -> int array

(** A profile's entries as (start, end, value) triples, chronons as
    unix seconds. *)
val profile : string -> int array
