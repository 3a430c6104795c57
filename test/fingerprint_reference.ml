(* The statement fingerprint as it was written before it was derived
   from the parser's tokens: a hand-rolled single pass over the source
   with the same token boundaries as [Lexer.tokenize]. Kept here only as
   a test oracle: on every text [Lexer.tokenize] accepts,
   [Lexer.fingerprint] must match it byte for byte (tip_stat_statements
   keys, and the tipbench statement classes matched against them,
   depend on the exact shape). *)

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let fingerprint src =
  let len = String.length src in
  let buf = Buffer.create len in
  let exception Fallback in
  let emit_sep () = if Buffer.length buf > 0 then Buffer.add_char buf ' ' in
  try
    let i = ref 0 in
    let next_is c = !i + 1 < len && src.[!i + 1] = c in
    while !i < len do
      match src.[!i] with
      | ' ' | '\t' | '\r' | '\n' -> incr i
      | '-' when next_is '-' ->
        while !i < len && src.[!i] <> '\n' do incr i done
      | '/' when next_is '*' ->
        i := !i + 2;
        let closed = ref false in
        while not !closed do
          if !i >= len then raise Fallback
          else if src.[!i] = '*' && next_is '/' then begin
            i := !i + 2;
            closed := true
          end
          else incr i
        done
      | '0' .. '9' ->
        while !i < len && is_digit src.[!i] do incr i done;
        if
          !i < len
          && src.[!i] = '.'
          && !i + 1 < len
          && is_digit src.[!i + 1]
        then begin
          incr i;
          while !i < len && is_digit src.[!i] do incr i done
        end;
        if !i < len && (src.[!i] = 'e' || src.[!i] = 'E') then begin
          incr i;
          if !i < len && (src.[!i] = '+' || src.[!i] = '-') then incr i;
          while !i < len && is_digit src.[!i] do incr i done
        end;
        emit_sep ();
        Buffer.add_char buf '?'
      | '\'' ->
        incr i;
        let closed = ref false in
        while not !closed do
          if !i >= len then raise Fallback
          else if src.[!i] = '\'' && next_is '\'' then i := !i + 2
          else if src.[!i] = '\'' then begin
            incr i;
            closed := true
          end
          else incr i
        done;
        emit_sep ();
        Buffer.add_char buf '?'
      | '"' ->
        incr i;
        emit_sep ();
        Buffer.add_char buf '"';
        let closed = ref false in
        while not !closed do
          if !i >= len then raise Fallback
          else if src.[!i] = '"' && next_is '"' then begin
            Buffer.add_char buf '"';
            i := !i + 2
          end
          else if src.[!i] = '"' then begin
            incr i;
            closed := true
          end
          else begin
            Buffer.add_char buf src.[!i];
            incr i
          end
        done;
        Buffer.add_char buf '"'
      | c when is_ident_start c ->
        emit_sep ();
        while !i < len && is_ident_char src.[!i] do
          Buffer.add_char buf (Char.lowercase_ascii src.[!i]);
          incr i
        done
      | ':' when next_is ':' ->
        i := !i + 2;
        emit_sep ();
        Buffer.add_string buf "::"
      | ':' ->
        if !i + 1 < len && is_ident_start src.[!i + 1] then begin
          incr i;
          while !i < len && is_ident_char src.[!i] do incr i done;
          emit_sep ();
          Buffer.add_char buf '?'
        end
        else raise Fallback
      | '<' when next_is '=' || next_is '>' ->
        emit_sep ();
        Buffer.add_string buf (if next_is '=' then "<=" else "<>");
        i := !i + 2
      | '>' when next_is '=' ->
        i := !i + 2;
        emit_sep ();
        Buffer.add_string buf ">="
      | '!' when next_is '=' ->
        i := !i + 2;
        emit_sep ();
        Buffer.add_string buf "<>"
      | '|' when next_is '|' ->
        i := !i + 2;
        emit_sep ();
        Buffer.add_string buf "||"
      | ( '(' | ')' | ',' | '.' | ';' | '+' | '-' | '*' | '/' | '%' | '='
        | '<' | '>' ) as c ->
        incr i;
        emit_sep ();
        Buffer.add_char buf c
      | _ -> raise Fallback
    done;
    Buffer.contents buf
  with Fallback -> String.trim src
