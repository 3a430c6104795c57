(* Minimal character scanner shared by the temporal-literal parsers.

   All TIP literals (chronons, spans, instants, periods, elements) are
   parsed with this cursor; parsers raise [Parse_error] with a message
   that includes the offending position. The primitives read the
   source in place and allocate nothing. *)

exception Parse_error of string

type t = { src : string; mutable pos : int }

let of_string src = { src; pos = 0 }

let fail s msg =
  raise (Parse_error (Printf.sprintf "%s at position %d in %S" msg s.pos s.src))

let eof s = s.pos >= String.length s.src

let advance s = s.pos <- s.pos + 1

let at s c = s.pos < String.length s.src && String.unsafe_get s.src s.pos = c

let skip_ws s =
  while at s ' ' || at s '\t' do
    advance s
  done

let eat_char s c =
  at s c && (advance s; true)

let expect_char s c =
  if not (eat_char s c) then fail s (Printf.sprintf "expected %C" c)

let is_digit c = c >= '0' && c <= '9'

let at_digit s =
  s.pos < String.length s.src && is_digit (String.unsafe_get s.src s.pos)

(* Consumes one or more decimal digits and returns their integer value;
   a value beyond [max_int] is a parse error, not a wrapped int. *)
let unsigned_int s =
  if not (at_digit s) then fail s "expected digits";
  let n = ref 0 in
  while at_digit s do
    let d = Char.code (String.unsafe_get s.src s.pos) - Char.code '0' in
    if !n > (max_int - d) / 10 then fail s "number out of range";
    n := (!n * 10) + d;
    advance s
  done;
  !n

(* [kw] (upper case) spelled in any case from [src.[pos]] on. *)
let rec matches_upper src pos kw i =
  i >= String.length kw
  || Char.uppercase_ascii (String.unsafe_get src (pos + i))
     = String.unsafe_get kw i
     && matches_upper src pos kw (i + 1)

(* Case-insensitive keyword match; consumes it when present. *)
let eat_keyword s kw =
  let n = String.length kw in
  if s.pos + n <= String.length s.src && matches_upper s.src s.pos kw 0
  then begin
    s.pos <- s.pos + n;
    true
  end
  else false

let expect_eof s =
  skip_ws s;
  if not (eof s) then fail s "trailing input"

(* Runs [f] over the whole of [str], requiring that it be consumed. *)
let parse_all f str =
  let s = of_string str in
  skip_ws s;
  let v = f s in
  expect_eof s;
  v
