(** Lexical tokens.

    Keywords are not distinguished lexically: the parser decides which
    identifiers act as keywords, so TIP routine names like [intersect] or
    [start] stay usable as plain identifiers where the grammar allows. *)

type t =
  | Int of int
  | Float of float
  | String of string  (** contents of a ['...'] literal, unescaped *)
  | Ident of string  (** bare identifier, original spelling *)
  | Quoted_ident of string  (** ["..."]-delimited identifier *)
  | Param of string  (** [:name] host variable *)
  | Symbol of string  (** operators and punctuation; [!=] normalizes to [<>] *)
  | Eof

(** A token with its source position: 1-based [line] and [column], and
    the 0-based byte [offset] of its first character. *)
type located = { token : t; line : int; column : int; offset : int }

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val equal : t -> t -> bool
