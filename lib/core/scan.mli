(** Minimal character scanner shared by the temporal-literal parsers.
    The primitives read the source in place and allocate nothing. *)

exception Parse_error of string

type t = { src : string; mutable pos : int }

val of_string : string -> t

(** @raise Parse_error with position information. *)
val fail : t -> string -> 'a

val eof : t -> bool
val skip_ws : t -> unit
val eat_char : t -> char -> bool

(** @raise Parse_error when the next character differs. *)
val expect_char : t -> char -> unit

val is_digit : char -> bool

(** The next character is a decimal digit. *)
val at_digit : t -> bool

(** One or more decimal digits as an integer.
    @raise Parse_error when none are present, or when the value exceeds
    [max_int]. *)
val unsigned_int : t -> int

(** Case-insensitive match of an upper-case keyword; consumes it when
    present. *)
val eat_keyword : t -> string -> bool

(** @raise Parse_error on trailing input. *)
val expect_eof : t -> unit

(** Runs [f] over the whole of the string, requiring full consumption. *)
val parse_all : (t -> 'a) -> string -> 'a
