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

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  | Some _ | None -> ());
  st.pos <- st.pos + 1

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let rec skip_trivia st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance st;
    skip_trivia st
  | Some '-' when peek2 st = Some '-' ->
    while peek st <> None && peek st <> Some '\n' do advance st done;
    skip_trivia st
  | Some '/' when peek2 st = Some '*' ->
    let start_line = st.line and start_col = column st in
    advance st;
    advance st;
    let rec close () =
      match peek st with
      | None -> error start_line start_col "unterminated block comment"
      | Some '*' when peek2 st = Some '/' ->
        advance st;
        advance st
      | Some _ ->
        advance st;
        close ()
    in
    close ();
    skip_trivia st
  | Some _ | None -> ()

let lex_number st =
  let line = st.line and col = column st in
  let start = st.pos in
  while (match peek st with Some c -> is_digit c | None -> false) do
    advance st
  done;
  let is_float =
    if peek st = Some '.' && (match peek2 st with Some c -> is_digit c | None -> false)
    then begin
      advance st;
      while (match peek st with Some c -> is_digit c | None -> false) do
        advance st
      done;
      true
    end
    else false
  in
  let is_float =
    match peek st with
    | Some ('e' | 'E') ->
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | Some _ | None -> ());
      while (match peek st with Some c -> is_digit c | None -> false) do
        advance st
      done;
      true
    | Some _ | None -> is_float
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
    match peek st with
    | None -> error line col ("unterminated " ^ what)
    | Some c when c = q && peek2 st = Some q ->
      Buffer.add_char buf q;
      advance st;
      advance st;
      go ()
    | Some c when c = q -> advance st
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Buffer.contents buf

let lex_ident st =
  let start = st.pos in
  while (match peek st with Some c -> is_ident_char c | None -> false) do
    advance st
  done;
  String.sub st.src start (st.pos - start)

(* Two-character symbols first, then single-character ones. *)
let lex_symbol st =
  let line = st.line and col = column st in
  let two =
    if st.pos + 1 < String.length st.src then
      Some (String.sub st.src st.pos 2)
    else None
  in
  match two with
  | Some (("::" | "<=" | ">=" | "<>" | "!=" | "||") as s) ->
    advance st;
    advance st;
    Token.Symbol (if s = "!=" then "<>" else s)
  | Some _ | None ->
    (match peek st with
    | Some (('(' | ')' | ',' | '.' | ';' | '+' | '-' | '*' | '/' | '%'
            | '=' | '<' | '>') as c) ->
      advance st;
      Token.Symbol (String.make 1 c)
    | Some c -> error line col (Printf.sprintf "unexpected character %C" c)
    | None -> Token.Eof)

let next_token st =
  skip_trivia st;
  let line = st.line and col = column st and start = st.pos in
  let token =
    match peek st with
    | None -> Token.Eof
    | Some c when is_digit c -> lex_number st
    | Some '\'' -> Token.String (lex_quoted st '\'' ~what:"string literal")
    | Some '"' ->
      Token.Quoted_ident (lex_quoted st '"' ~what:"quoted identifier")
    | Some c when is_ident_start c -> Token.Ident (lex_ident st)
    | Some ':' when peek2 st = Some ':' -> lex_symbol st
    | Some ':' ->
      advance st;
      (match peek st with
      | Some c when is_ident_start c -> Token.Param (lex_ident st)
      | Some _ | None -> error line col "expected parameter name after ':'")
    | Some _ -> lex_symbol st
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
