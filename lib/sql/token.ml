(* Lexical tokens for the SQL dialect.

   Keywords are not distinguished at the lexical level: the parser decides
   which identifiers act as keywords, so TIP routine names like
   [intersect] or [start] stay usable as plain identifiers where the
   grammar allows. *)

type t =
  | Int of int
  | Float of float
  | String of string          (* contents of a '...' literal, unescaped *)
  | Ident of string           (* bare identifier, original spelling *)
  | Quoted_ident of string    (* "..." delimited identifier *)
  | Param of string           (* :name host variable *)
  | Symbol of string          (* operators and punctuation *)
  | Eof

type located = { token : t; line : int; column : int; offset : int }

let pp ppf = function
  | Int n -> Fmt.pf ppf "%d" n
  | Float f -> Fmt.pf ppf "%g" f
  | String s -> Fmt.pf ppf "'%s'" s
  | Ident s -> Fmt.string ppf s
  | Quoted_ident s -> Fmt.pf ppf "%S" s
  | Param s -> Fmt.pf ppf ":%s" s
  | Symbol s -> Fmt.string ppf s
  | Eof -> Fmt.string ppf "<eof>"

let to_string t = Fmt.str "%a" pp t

let equal a b =
  match a, b with
  | Int x, Int y -> x = y
  | Float x, Float y -> x = y
  | String x, String y -> String.equal x y
  | Ident x, Ident y -> String.equal x y
  | Quoted_ident x, Quoted_ident y -> String.equal x y
  | Param x, Param y -> String.equal x y
  | Symbol x, Symbol y -> String.equal x y
  | Eof, Eof -> true
  | (Int _ | Float _ | String _ | Ident _ | Quoted_ident _ | Param _
    | Symbol _ | Eof), _ -> false
