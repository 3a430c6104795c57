(* Hand-written SQL lexer.

   Understands: integer and float literals; '...' string literals with
   doubled-quote escaping; bare and "..."-quoted identifiers; :name host
   variables; the Informix '::' explicit-cast symbol; line (--) and block
   comments; and the usual operator/punctuation set. *)

exception Error of string

let error line column msg =
  raise (Error (Printf.sprintf "lexical error at line %d, column %d: %s" line column msg))

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* position just after the last newline *)
}

let column st = st.pos - st.bol + 1

(* Characters are read in place; past the end of input [char_at] gives
   '\000', which no token starts with, so few callers test [eof]. *)
let eof st = st.pos >= String.length st.src

let char_at st i =
  if i < String.length st.src then String.unsafe_get st.src i else '\000'

let cur st = char_at st st.pos
let ahead st = char_at st (st.pos + 1)

let advance st =
  if cur st = '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  end;
  st.pos <- st.pos + 1

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let skip_digits st = while is_digit (cur st) do advance st done

let rec skip_trivia st =
  match cur st with
  | ' ' | '\t' | '\r' | '\n' ->
    advance st;
    skip_trivia st
  | '-' when ahead st = '-' ->
    while (not (eof st)) && cur st <> '\n' do advance st done;
    skip_trivia st
  | '/' when ahead st = '*' ->
    let start_line = st.line and start_col = column st in
    advance st;
    advance st;
    while not (cur st = '*' && ahead st = '/') do
      if eof st then error start_line start_col "unterminated block comment";
      advance st
    done;
    advance st;
    advance st;
    skip_trivia st
  | _ -> ()

let lex_number st =
  let line = st.line and col = column st in
  let start = st.pos in
  skip_digits st;
  let is_float =
    if cur st = '.' && is_digit (ahead st) then begin
      advance st;
      skip_digits st;
      true
    end
    else false
  in
  let is_float =
    match cur st with
    | 'e' | 'E' ->
      advance st;
      (match cur st with '+' | '-' -> advance st | _ -> ());
      skip_digits st;
      true
    | _ -> is_float
  in
  let text = String.sub st.src start (st.pos - start) in
  let token =
    if is_float then
      Option.map (fun f -> Token.Float f) (float_of_string_opt text)
    else Option.map (fun n -> Token.Int n) (int_of_string_opt text)
  in
  match token with
  | Some token -> token
  | None ->
    error line col (Printf.sprintf "malformed or out-of-range number %s" text)

(* The contents of a [q]-delimited run ('...' strings, "..."
   identifiers), a doubled [q] standing for one. *)
let lex_quoted st q ~what =
  let line = st.line and col = column st in
  advance st;
  let buf = Buffer.create 16 in
  let rec go () =
    if eof st then error line col ("unterminated " ^ what);
    let c = cur st in
    advance st;
    if c <> q then (Buffer.add_char buf c; go ())
    else if cur st = q then (Buffer.add_char buf q; advance st; go ())
  in
  go ();
  Buffer.contents buf

let lex_ident st =
  let start = st.pos in
  while is_ident_char (cur st) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

(* Two-character symbols first, then single-character ones. *)
let lex_symbol st =
  let line = st.line and col = column st in
  let two =
    if st.pos + 1 < String.length st.src then String.sub st.src st.pos 2 else ""
  in
  match two with
  | "::" | "<=" | ">=" | "<>" | "!=" | "||" ->
    advance st;
    advance st;
    Token.Symbol (if two = "!=" then "<>" else two)
  | _ -> (
    match cur st with
    | ('(' | ')' | ',' | '.' | ';' | '+' | '-' | '*' | '/' | '%' | '=' | '<'
      | '>') as c ->
      advance st;
      Token.Symbol (String.make 1 c)
    | c -> error line col (Printf.sprintf "unexpected character %C" c))

let next_token st =
  skip_trivia st;
  let line = st.line and col = column st and start = st.pos in
  let token =
    if eof st then Token.Eof
    else
      match cur st with
      | c when is_digit c -> lex_number st
      | '\'' -> Token.String (lex_quoted st '\'' ~what:"string literal")
      | '"' -> Token.Quoted_ident (lex_quoted st '"' ~what:"quoted identifier")
      | c when is_ident_start c -> Token.Ident (lex_ident st)
      | ':' when ahead st = ':' -> lex_symbol st
      | ':' ->
        advance st;
        if is_ident_start (cur st) then Token.Param (lex_ident st)
        else error line col "expected parameter name after ':'"
      | _ -> lex_symbol st
  in
  { Token.token; line; column = col; offset = start }

(* Lexes the whole input; the resulting array always ends with [Eof]. *)
let tokenize src =
  let st = { src; pos = 0; line = 1; bol = 0 } in
  let rec go acc =
    let t = next_token st in
    match t.Token.token with
    | Token.Eof -> List.rev (t :: acc)
    | Token.Int _ | Token.Float _ | Token.String _ | Token.Ident _
    | Token.Quoted_ident _ | Token.Param _ | Token.Symbol _ ->
      go (t :: acc)
  in
  Array.of_list (go [])

(* Normalized statement shape for the introspection catalog: every
   literal and host variable collapses to [?], bare identifiers and
   keywords fold to lowercase, comments and whitespace are already gone,
   and tokens are re-joined with single spaces. Two statements differing
   only in constants therefore share one fingerprint, while quoted
   identifiers keep their case (they name distinct objects). A walk over
   the tokens the parser consumes, so a statement is lexed once. *)
let fingerprint_tokens tokens =
  let buf = Buffer.create 128 in
  let sep () = if Buffer.length buf > 0 then Buffer.add_char buf ' ' in
  Array.iter
    (fun { Token.token; _ } ->
      match token with
      | Token.Int _ | Token.Float _ | Token.String _ | Token.Param _ ->
        sep ();
        Buffer.add_char buf '?'
      | Token.Ident s ->
        sep ();
        String.iter (fun c -> Buffer.add_char buf (Char.lowercase_ascii c)) s
      | Token.Quoted_ident s ->
        sep ();
        Buffer.add_char buf '"';
        Buffer.add_string buf s;
        Buffer.add_char buf '"'
      | Token.Symbol s ->
        sep ();
        Buffer.add_string buf s
      | Token.Eof -> ())
    tokens;
  Buffer.contents buf

(* Input the lexer rejects falls back to its trimmed raw text, so errors
   are still attributable to *something* in tip_stat_statements. *)
let fingerprint src =
  match tokenize src with
  | tokens -> fingerprint_tokens tokens
  | exception Error _ -> String.trim src
