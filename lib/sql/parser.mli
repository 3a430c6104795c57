(** Recursive-descent parser for the SQL dialect described in {!Ast}.

    SQL-92 DML/DDL plus the Informix-isms the paper relies on
    ([expr::Type] casts, [:name] host variables), UNION [ALL],
    non-correlated subqueries, and the TIP [SET NOW] statement. Keywords
    are case-insensitive and reserved only where the grammar needs them,
    so TIP routine names ([intersect], [start], [union], [contains])
    remain usable as identifiers. *)

exception Error of string

(** Parses one statement (an optional trailing [';'] is allowed).
    @raise Error with position information. *)
val parse : string -> Ast.statement

(** {!parse}, also returning the tokens it parsed, so the caller can
    fingerprint the statement ({!Lexer.fingerprint_tokens}) without
    lexing it again. *)
val parse_with_tokens : string -> Ast.statement * Token.located array

(** Parses a [';']-separated script, each statement with its own slice
    of the tokens (its closing [';'] included), so a caller keys it
    exactly as if it had been parsed alone. *)
val parse_script : string -> (Ast.statement * Token.located array) list
