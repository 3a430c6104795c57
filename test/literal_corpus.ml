(* A corpus of well-formed and malformed temporal literals, run through
   every literal parser. [render ()] prints one line per (parser, input):
   the value printed back, or the parse error's text. The expected output
   (test/literal_corpus_expected.ml) was recorded from the record-cursor
   scanners the one-pass scanner replaced, so a change in what is
   accepted, what is rejected, or any error text shows as a diff. *)

open Tip_core

let hand =
  [ (* chronons *)
    ""; " "; "\t"; "1999"; "1999-"; "1999-01"; "1999-01-"; "1999-1-1";
    "1999-01-01"; " 1999-01-01 "; "\t1999-01-01\t"; "1999-01-01 ";
    "1999-01-01 1"; "1999-01-01 12"; "1999-01-01 12:"; "1999-01-01 12:00";
    "1999-01-01 12:00:"; "1999-01-01 12:00:00"; "1999-01-01 00:00:00";
    "1999-01-01 24:00:00"; "1999-01-01 23:60:00"; "1999-01-01 23:59:60";
    "1999-01-01 23:59:59"; "1999-13-01"; "1999-00-10"; "1999-01-00";
    "1999-01-32"; "1999-02-29"; "2000-02-29"; "1900-02-29"; "2000-02-30";
    "-0001-01-01"; "-1-01-01"; "--1-01-01"; "-0044-03-15 12:00:00";
    "0000-01-01"; "10000-01-01"; "123456-12-31 23:59:59";
    "99999999999999999999-01-01"; "9223372036854775807-01-01";
    "100000000000-01-01"; "-100000000000-01-01"; "1999-01-01x";
    "1999-01-01  12:00:00"; "1999-01-01\t12:00:00"; "1999/01/01";
    "+1999-01-01"; "1999-01-01 12:00:00 "; "1999-01-01 12:00:00x";
    "1999-001-01"; "1999-01-001"; "01999-01-01"; "1999-01-01 1:2:3";
    "1999-01-01 -1:00:00"; "1999-01-01 12:00:00:00"; "1999-01-01 a";
    "1999-01-01 12:00:00,"; "1999-01-01 12:00:99999999999999999999";
    "1999-01-01 99999999999999999999:00:00"; "1999-01-01 12 00 00";
    (* spans and NOW *)
    "0"; "7"; "-7"; "+7"; "-0"; "7 12:00:00"; "7 12:00"; "7 24:00:00";
    "7 23:60:00"; "7  12:00:00"; "- 7"; "x"; "99999999999999999999";
    "106751991167300 15:30:07"; "106751991167300 15:30:08"; "106751991167301";
    "7 12:00:00 "; " 7 "; "7 1:2:3"; "7 a"; "7 12:00:00x"; "+-7"; "-+7";
    "NOW"; "now"; "Now"; "nOw"; " NOW "; "NOW+1"; "NOW-1"; "NOW - 1";
    "NOW +  7 12:00:00"; "NOW-0"; "NOW+0"; "NOW+-1"; "NOW--1"; "NOW-+1";
    "NOW+"; "NOW-"; "NOW-1 25:00:00"; "NOW-1 23:59:59"; "NOW-1 12:00";
    "NOWX"; "NO"; "N"; "NOW 1"; "NOW+99999999999999999999";
    "NOW+26687997791 19:48:31"; "NOW+26687997791 19:48:32";
    "NOW-26687997791 19:48:32"; "NOW-26687997791 19:48:33";
    "NOW\t-\t7"; "NOW-7 12:00:00 "; "NOW-7x"; "NOWNOW";
    (* periods *)
    "[1999-01-01, 1999-02-01]"; "[1999-01-01,1999-02-01]";
    "[ 1999-01-01 , 1999-02-01 ]"; "[\t1999-01-01\t,\tNOW\t]";
    "[1999-01-01 12:00:00, NOW]"; "[NOW-7, NOW]";
    "[NOW - 7 12:00:00 , NOW + 1]"; "[1999-01-01, 1999-02-01";
    "[1999-01-01 1999-02-01]"; "1999-01-01, 1999-02-01]"; "[1999-01-01,]";
    "[, NOW]"; "[]"; "["; "[1999-02-01, 1999-01-01]";
    "[1999-01-01, 1999-02-01] x"; " [NOW, NOW] "; "[1999-01-01 , 1999-02-01 12:00]";
    "[1999-01-01, 1999-02-01]]"; "[1999-01-01; 1999-02-01]";
    "[-0044-03-15, 12345-01-01 00:00:01]"; "[1999-01-01 12:00:00,NOW-1 12:00:00]";
    "[100000000000-01-01, NOW]"; "[1999-01-01, 1999-02-30]";
    (* elements *)
    "{}"; "{ }"; " { } "; "{\t}"; "{"; "}"; "{}}"; "{} x"; "{[1999-01-01, 1999-02-01]}";
    "{[1999-01-01, 1999-02-01],[1999-03-01, NOW]}";
    "{ [1999-01-01, 1999-02-01] , [1999-03-01, NOW] }";
    "{\t[1999-01-01,\t1999-02-01]\t,\t[NOW-1, NOW]\t}";
    "{[1999-01-01, 1999-02-01],}"; "{,}"; "{[1999-01-01, 1999-02-01]";
    "{[1999-01-01, 1999-02-01],"; "{[1999-01-01, 1999-02-01]]}";
    "{[1999-01-01, 1999-02-01] [1999-03-01, NOW]}"; "{{}}";
    "{[-0044-03-15, 12345-01-01 00:00:01]}"; "{[NOW-1 12:00:00, NOW+2]}";
    "{[1999-01-01, 1999-02-30]}"; "{[1999-01-01, 1999-02-01]} x";
    "{[1999-01-01, 1999-02-01]}}"; "{[NOW, NOW], [NOW, NOW], [NOW, NOW]}";
    "{[1999-01-01, 1999-02-28], [1999-04-01, 1999-06-30 12:00:00], [2000-01-01, NOW]}";
    "{[1999-01-01, 1999-01-02], [1999-01-03, 1999-01-04], [1999-01-05, 1999-01-06], \
     [1999-01-07, 1999-01-08], [1999-01-09, 1999-01-10], [1999-01-11, 1999-01-12], \
     [1999-01-13, 1999-01-14], [1999-01-15, 1999-01-16], [1999-01-17, NOW]}";
    "{[1999-01-01, 1999-02-01]:3}"; "{[1999-01-01, 1999-02-01]:-3, [1999-03-01, 1999-04-01]:2}";
    "{[1999-01-01, 1999-02-01]:}"; "{[1999-01-01, 1999-02-01]3}";
    "{[NOW, 1999-01-01]:1}"; "{ [1999-01-01 12:00:00 , 1999-02-01] : 4 }";
    "{[1999-01-01, 1999-02-01]:99999999999999999999}" ]

(* Deterministic single-edit mutations of a few seed literals: each
   character dropped, doubled, or replaced by one of a few probes. *)
let seeds =
  [ "1999-06-30 12:00:00"; "NOW-7 12:00:00";
    "[1999-01-01, NOW+1]";
    "{[1999-01-01, 1999-02-28], [NOW-1 08:30:00, NOW]}";
    "{[1999-01-01, 1999-02-01]:-3}" ]

let probes = [ ' '; '-'; '+'; ':'; ','; '0'; '9'; 'N'; '['; '}' ]

let mutations =
  List.concat_map
    (fun seed ->
      let n = String.length seed in
      List.concat
        (List.init n (fun i ->
             let before = String.sub seed 0 i
             and after = String.sub seed (i + 1) (n - i - 1) in
             let c = seed.[i] in
             (before ^ after)
             :: (before ^ String.make 2 c ^ after)
             :: List.filter_map
                  (fun p ->
                    if p = c then None
                    else Some (before ^ String.make 1 p ^ after))
                  probes)))
    seeds

let parsers =
  [ ("chronon", fun s -> Chronon.to_string (Chronon.of_string_exn s));
    ("span", fun s -> Span.to_string (Span.of_string_exn s));
    ("instant", fun s -> Instant.to_string (Instant.of_string_exn s));
    ("period", fun s -> Period.to_string (Period.of_string_exn s));
    ("element", fun s -> Element.to_string (Element.of_string_exn s));
    ("profile", fun s -> Profile.to_string (Profile.of_string_exn s)) ]

(* Whether [of_string] agrees with [of_string_exn]. *)
let options =
  [ (fun s -> Option.is_some (Chronon.of_string s));
    (fun s -> Option.is_some (Span.of_string s));
    (fun s -> Option.is_some (Instant.of_string s));
    (fun s -> Option.is_some (Period.of_string s));
    (fun s -> Option.is_some (Element.of_string s));
    (fun s -> Option.is_some (Profile.of_string s)) ]

let result f s =
  match f s with
  | v -> "ok " ^ v
  | exception Scan.Parse_error msg -> "error " ^ msg
  | exception Invalid_argument msg -> "invalid " ^ msg

let lines inputs =
  List.concat_map
    (fun s ->
      List.map2
        (fun (name, f) ok ->
          let r = result f s in
          let agrees = String.length r > 3 && String.sub r 0 3 = "ok " = ok s in
          Printf.sprintf "%s %S -> %s%s" name s r
            (if agrees then "" else " (of_string disagrees)"))
        parsers options)
    inputs

(* The hand-written corpus line by line, then a digest of the mutation
   corpus's lines. *)
let render () =
  let mutated = String.concat "\n" (lines mutations) in
  String.concat "\n" (lines hand)
  ^ Printf.sprintf "\nmutations: %d inputs, digest %s\n"
      (List.length mutations)
      (Digest.to_hex (Digest.string mutated))

let render_mutations () = String.concat "\n" (lines mutations) ^ "\n"
