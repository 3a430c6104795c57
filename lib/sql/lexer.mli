(** Hand-written SQL lexer.

    Understands integer and float literals; ['...'] strings with
    doubled-quote escaping; bare and ["..."]-quoted identifiers; [:name]
    host variables; the Informix [::] cast symbol; [--] line and
    [/* */] block comments; and the usual operator set. *)

exception Error of string

(** Lexes the whole input; the result always ends with {!Token.Eof}.
    @raise Error with position information on malformed input. *)
val tokenize : string -> Token.located array

(** Normalized statement shape (the key of [tip_stat_statements]) of a
    token array, read up to its {!Token.Eof} or its end: literals and
    [:host] variables become [?], bare identifiers fold to lowercase,
    tokens re-join with single spaces. Quoted identifiers keep their
    case. Callers that parse the text pass the parser's tokens, so the
    statement is lexed once. *)
val fingerprint_tokens : Token.located array -> string

(** [fingerprint_tokens (tokenize src)]; unlexable input returns its
    trimmed raw text instead of raising. *)
val fingerprint : string -> string
