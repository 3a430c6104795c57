(* The wire codec: the temporal printers against their Fmt reference
   (test/fmt_reference.ml), literal round trips, the row writer against
   the row reader, cell escaping, and an allocation ceiling on the
   server's row writer. *)

open Tip_core
open Tip_storage
module Protocol = Tip_server.Protocol
module Values = Tip_blade.Values

let () = Values.register_types ()

(* --- Generators ------------------------------------------------------------ *)

let edge_seconds =
  [ 0; 1; -1; 59; 86_399; 86_400; -86_400; -86_401; 3_600 * 25;
    (* 0000-01-01, -0001-12-31, 9999-12-31 23:59:59, 10000-01-01 *)
    -62_167_219_200; -62_167_219_201; 253_402_300_799; 253_402_300_800;
    -100_000_000_000; 900_000_000_000; Instant.min_seconds;
    Instant.max_seconds ]

(* Chronons from about year -30000 to 30000, edges included, half of
   them at midnight. *)
let chronon_gen =
  let open QCheck.Gen in
  let wide = int_range (-1_000_000_000_000) 1_000_000_000_000 in
  let midnight =
    map (fun s -> s - (((s mod 86_400) + 86_400) mod 86_400)) wide
  in
  map Chronon.of_unix_seconds
    (frequency [ (4, wide); (4, midnight); (1, oneofl edge_seconds) ])

let span_gen =
  let open QCheck.Gen in
  map Span.of_seconds
    (frequency
       [ (3, int_range (-100_000) 100_000);
         (3, map (fun d -> d * 86_400) (int_range (-10_000) 10_000));
         (2, int_range (-10_000_000_000) 10_000_000_000);
         (1, oneofl (min_int :: max_int :: edge_seconds)) ])

(* Spans an instant (and a literal) can carry. *)
let literal_span_gen =
  QCheck.Gen.map
    (fun s ->
      let x = Span.to_seconds s in
      if x = min_int || x = max_int then Span.zero else s)
    span_gen

let instant_gen =
  let open QCheck.Gen in
  frequency
    [ (3, map Instant.of_chronon chronon_gen);
      (2, map Instant.now_plus literal_span_gen);
      (1, return Instant.now) ]

let period_gen =
  QCheck.Gen.map2
    (fun s e -> Period.make ~start_:s ~end_:e)
    instant_gen instant_gen

let element_gen =
  QCheck.Gen.(map Element.of_periods (list_size (int_range 0 5) period_gen))

let profile_gen =
  let open QCheck.Gen in
  let ground =
    map2
      (fun s len ->
        let s = Chronon.to_unix_seconds s in
        (Chronon.of_unix_seconds s, Chronon.of_unix_seconds (s + len)))
      (map Chronon.of_unix_seconds (int_range (-10_000_000_000) 10_000_000_000))
      (int_range 0 10_000_000)
  in
  map Profile.of_weighted_ground
    (list_size (int_range 0 4)
       (pair (list_size (int_range 0 3) ground) (int_range (-5) 5)))

let arb gen print = QCheck.make ~print gen

(* --- Printers match the Fmt reference ---------------------------------------- *)

let matches name gen to_string reference =
  QCheck.Test.make ~name:(name ^ " = Fmt reference") ~count:2000
    (arb gen to_string)
    (fun v -> String.equal (to_string v) (Fmt_reference.str reference v))

let prop_printers =
  [ matches "chronon" chronon_gen Chronon.to_string Fmt_reference.chronon;
    matches "span" span_gen Span.to_string Fmt_reference.span;
    matches "instant" instant_gen Instant.to_string Fmt_reference.instant;
    matches "period" period_gen Period.to_string Fmt_reference.period;
    matches "element" element_gen Element.to_string Fmt_reference.element;
    matches "profile" profile_gen Profile.to_string Fmt_reference.profile ]

(* Chronons whose years straddle the four-digit field: negative years,
   0000, 1-999, 9999 and 10000 and beyond, where the "%04d" year is
   padded, signed or wider than four digits. *)
let edge_year_chronon_gen =
  let open QCheck.Gen in
  let* year =
    frequency
      [ (3, oneofl [ -10_001; -10_000; -9_999; -1_000; -999; -1; 0; 1; 9; 99;
                     999; 1_000; 9_999; 10_000; 10_001; 99_999 ]);
        (2, int_range (-99_999) 999);
        (2, int_range 9_999 99_999) ]
  in
  let* month = int_range 1 12 in
  let* day = int_range 1 (Chronon.days_in_month year month) in
  let* hour, minute, second =
    frequency
      [ (1, return (0, 0, 0));
        (1, triple (int_range 0 23) (int_range 0 59) (int_range 0 59)) ]
  in
  return (Chronon.of_civil ~year ~month ~day ~hour ~minute ~second)

let edge_year_period_gen =
  QCheck.Gen.map2
    (fun s e -> Period.of_chronons s e)
    edge_year_chronon_gen edge_year_chronon_gen

let prop_edge_year_printers =
  [ matches "chronon, years outside 1000-9999" edge_year_chronon_gen
      Chronon.to_string Fmt_reference.chronon;
    matches "instant, years outside 1000-9999"
      (QCheck.Gen.map Instant.of_chronon edge_year_chronon_gen)
      Instant.to_string Fmt_reference.instant;
    matches "element, years outside 1000-9999"
      QCheck.Gen.(
        map Element.of_periods (list_size (int_range 1 4) edge_year_period_gen))
      Element.to_string Fmt_reference.element ]

let check_printer_edges () =
  let check name got want = Alcotest.(check string) name want got in
  let c = Chronon.of_civil in
  check "negative year"
    (Chronon.to_string (c ~year:(-1) ~month:12 ~day:31 ~hour:0 ~minute:0 ~second:0))
    "-001-12-31";
  check "year 10000"
    (Chronon.to_string (c ~year:10_000 ~month:1 ~day:2 ~hour:3 ~minute:4 ~second:5))
    "10000-01-02 03:04:05";
  check "year 7" (Chronon.to_string (Chronon.of_ymd 7 3 9)) "0007-03-09";
  check "sub-day span" (Span.to_string (Span.of_seconds (-3_661))) "-0 01:01:01";
  check "whole days" (Span.to_string (Span.of_days 7)) "7";
  check "NOW" (Instant.to_string Instant.now) "NOW";
  check "NOW-" (Instant.to_string (Instant.now_minus (Span.of_days 1))) "NOW-1";
  check "NOW+"
    (Instant.to_string (Instant.now_plus (Span.of_hours 8)))
    "NOW+0 08:00:00";
  check "empty element" (Element.to_string Element.empty) "{}";
  check "empty profile" (Profile.to_string Profile.empty) "{}";
  let chronon_edges = List.map Chronon.of_unix_seconds edge_seconds in
  List.iter
    (fun v ->
      check "edge chronon" (Chronon.to_string v)
        (Fmt_reference.str Fmt_reference.chronon v))
    chronon_edges;
  List.iter
    (fun x ->
      let v = Span.of_seconds x in
      check "edge span" (Span.to_string v)
        (Fmt_reference.str Fmt_reference.span v))
    (min_int :: max_int :: edge_seconds);
  (* [pp] prints the same bytes *)
  let e =
    Element.of_string_exn "{[1999-01-01, 1999-02-28 12:00:00], [NOW-7, NOW]}"
  in
  check "pp = to_string" (Fmt.str "%a" Element.pp e) (Element.to_string e)

(* --- Literal round trips ------------------------------------------------------ *)

let roundtrip name gen to_string of_string equal =
  QCheck.Test.make ~name:(name ^ " of_string (to_string v) = v") ~count:1000
    (arb gen to_string)
    (fun v ->
      match of_string (to_string v) with
      | Some v' -> equal v v'
      | None -> false)

(* Literals spell instants, so chronons stay inside the instant range. *)
let literal_chronon_gen =
  QCheck.Gen.map
    (fun c ->
      let x = Chronon.to_unix_seconds c in
      if x < Instant.min_seconds || x > Instant.max_seconds then Chronon.epoch
      else c)
    chronon_gen

let literal_period_gen =
  QCheck.Gen.map
    (fun p ->
      let clamp i =
        if Instant.is_now_relative i then i
        else Instant.of_chronon (Instant.bind ~now:Chronon.epoch i)
      in
      Period.make ~start_:(clamp (Period.start_instant p))
        ~end_:(clamp (Period.end_instant p)))
    period_gen

let prop_roundtrips =
  [ roundtrip "chronon" literal_chronon_gen Chronon.to_string Chronon.of_string
      Chronon.equal;
    roundtrip "span" literal_span_gen Span.to_string Span.of_string Span.equal;
    roundtrip "instant" instant_gen Instant.to_string Instant.of_string
      Instant.equal;
    roundtrip "period" literal_period_gen Period.to_string Period.of_string
      Period.equal;
    roundtrip "element"
      QCheck.Gen.(
        map Element.of_periods (list_size (int_range 0 5) literal_period_gen))
      Element.to_string Element.of_string Element.equal;
    roundtrip "profile" profile_gen Profile.to_string Profile.of_string
      Profile.equal ]

let prop_edge_year_roundtrip =
  roundtrip "chronon, years outside 1000-9999" edge_year_chronon_gen
    Chronon.to_string Chronon.of_string Chronon.equal

(* Elements of up to 40 periods mixing times of day, NOW and NOW+-span
   with times, negative years and years past 9999, printed by the Fmt
   reference and then respaced: spaces and tabs wherever the grammar
   allows them (either side of the literal, after '{', '[' and ',',
   before ',', ']' and '}', and either side of NOW's sign). *)
let respaced_element_gen =
  let open QCheck.Gen in
  let* periods =
    frequency
      [ (1, return []);
        (2, list_size (return 1) literal_period_gen);
        (4, list_size (int_range 2 40)
              (oneof [ literal_period_gen; edge_year_period_gen ])) ]
  in
  let e = Element.of_periods periods in
  let text = Fmt_reference.str Fmt_reference.element e in
  let n = String.length text in
  let* spaces = list_repeat (2 * (n + 1)) (oneofl [ ""; ""; " "; "\t"; " \t " ]) in
  let spaces = Array.of_list spaces in
  let b = Buffer.create (2 * n) in
  Buffer.add_string b spaces.(0);
  String.iteri
    (fun i ch ->
      let after_now = i >= 3 && String.sub text (i - 3) 3 = "NOW" in
      if String.contains "],}" ch || (after_now && String.contains "+-" ch) then
        Buffer.add_string b spaces.((2 * i) + 1);
      Buffer.add_char b ch;
      if String.contains "{[,+-" ch
         && (ch <> '-' && ch <> '+' || after_now)
      then Buffer.add_string b spaces.((2 * i) + 2))
    text;
  Buffer.add_string b spaces.(2 * n + 1);
  return (e, Buffer.contents b)

let prop_respaced_elements =
  [ QCheck.Test.make ~name:"element, respaced = Fmt reference round trip"
      ~count:1000
      (arb respaced_element_gen snd)
      (fun (e, text) ->
        String.equal (Element.to_string e) (Fmt_reference.str Fmt_reference.element e)
        && Element.equal (Element.of_string_exn text) e) ]

(* --- Rows through write_response / read_response -------------------------------- *)

let through_wire response =
  let path = Filename.temp_file "tip_wire" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Protocol.write_response oc response;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let r = Protocol.read_response ic in
          (match input_line ic with
          | extra -> Alcotest.failf "trailing line after response: %S" extra
          | exception End_of_file -> ());
          r))

let nasty_string_gen =
  let open QCheck.Gen in
  string_size
    ~gen:(oneofl [ 'a'; 'Z'; ' '; '\t'; '\n'; '\\'; '\001'; 'n'; 't'; '1'; 'N' ])
    (int_range 0 12)

(* The base types and every type the blade registers. *)
let value_gen =
  let open QCheck.Gen in
  oneof
    [ return Value.Null;
      map (fun n -> Value.Int n) (oneof [ small_signed_int; int; return min_int ]);
      (* quarters print exactly under "%g" *)
      map (fun n -> Value.Float (float_of_int n /. 4.)) (int_range (-4000) 4000);
      map (fun b -> Value.Bool b) bool;
      map (fun s -> Value.Str s) nasty_string_gen;
      map (fun c -> Value.Date (Chronon.start_of_day c)) literal_chronon_gen;
      map Values.chronon literal_chronon_gen;
      map Values.span literal_span_gen;
      map Values.instant instant_gen;
      map Values.period literal_period_gen;
      map
        (fun ps -> Values.element (Element.of_periods ps))
        (list_size (int_range 0 4) literal_period_gen);
      map Values.profile profile_gen ]

let rows_gen =
  let open QCheck.Gen in
  int_range 1 5 >>= fun ncols ->
  pair
    (list_repeat ncols nasty_string_gen)
    (list_size (int_range 0 6) (map Array.of_list (list_repeat ncols value_gen)))

let print_rows (names, rows) =
  Printf.sprintf "names=%s rows=%s"
    (String.concat "|" (List.map String.escaped names))
    (String.concat " / "
       (List.map
          (fun r ->
            String.concat "," (Array.to_list (Array.map Protocol.encode_typed r)))
          rows))

let same_rows a b =
  List.length a = List.length b
  && List.for_all2
       (fun r1 r2 ->
         Array.length r1 = Array.length r2
         && Array.for_all2
              (fun v1 v2 ->
                String.equal (Value.type_name v1) (Value.type_name v2)
                && Value.equal v1 v2)
              r1 r2)
       a b

let prop_rows_roundtrip =
  QCheck.Test.make ~name:"write_response then read_response = rows" ~count:500
    (QCheck.make ~print:print_rows rows_gen)
    (fun (names, rows) ->
      match through_wire (Protocol.Rows { names; rows }) with
      | Protocol.Rows { names = names'; rows = rows' } ->
        List.equal String.equal names names' && same_rows rows rows'
      | _ -> false)

(* A \x01 in a string once split its cell in two on the reader. *)
let check_separator_in_strings () =
  let strings =
    [ "a\001b"; "\001"; "tab\there"; "line\nbreak"; "back\\slash"; "\\1";
      "\\"; "mixed\t\n\\\001end"; "" ]
  in
  let rows = List.map (fun s -> [| Value.Str s; Value.Int 1 |]) strings in
  (match through_wire (Protocol.Rows { names = [ "s\001"; "n\t" ]; rows }) with
  | Protocol.Rows { names; rows = rows' } ->
    Alcotest.(check (list string)) "names" [ "s\001"; "n\t" ] names;
    Alcotest.(check bool) "rows" true (same_rows rows rows')
  | _ -> Alcotest.fail "expected rows");
  List.iter
    (fun s ->
      (match through_wire (Protocol.Message s) with
      | Protocol.Message s' -> Alcotest.(check string) "message" s s'
      | _ -> Alcotest.fail "expected a message");
      match through_wire (Protocol.Error s) with
      | Protocol.Error s' -> Alcotest.(check string) "error" s s'
      | _ -> Alcotest.fail "expected an error")
    strings;
  (* Snapshots and WAL payloads keep their escaping: \x01 stays raw. *)
  Alcotest.(check string) "snapshot escape leaves \\x01" "a\001b\\t"
    (Persist.escape_cell "a\001b\t");
  Alcotest.(check string) "snapshot unescape leaves \\1" "1"
    (Persist.unescape_cell "\\1")

(* A row line with fewer or more cells than the header's columns is a
   protocol error, not a short or long row. *)
let check_row_arity () =
  let read text =
    let path = Filename.temp_file "tip_wire" ".txt" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out_bin path in
        output_string oc text;
        close_out oc;
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> Protocol.read_response ic))
  in
  (match read "R 2 1\na\tb\nint\t1\001int\t2\n" with
  | Protocol.Rows { rows = [ [| Value.Int 1; Value.Int 2 |] ]; _ } -> ()
  | _ -> Alcotest.fail "well-formed row");
  List.iter
    (fun text ->
      match read text with
      | _ -> Alcotest.failf "accepted %S" text
      | exception Failure msg ->
        Alcotest.(check string) "message" "protocol: row arity" msg)
    [ "R 2 1\na\tb\nint\t1\n";
      "R 2 1\na\tb\nint\t1\001int\t2\001int\t3\n";
      "R 1 2\na\nint\t1\nint\t1\001null\t\\N\n" ]

let check_escape_fast_path () =
  let clean = "{[1999-01-01, NOW]}" in
  Alcotest.(check bool) "escape_cell returns clean text itself" true
    (Persist.escape_cell clean == clean);
  Alcotest.(check bool) "unescape_cell returns clean text itself" true
    (Persist.unescape_cell clean == clean);
  Alcotest.(check bool) "escape_wire returns clean text itself" true
    (Persist.escape_wire clean == clean);
  List.iter
    (fun s ->
      Alcotest.(check string) "cell escape round trip" s
        (Persist.unescape_cell (Persist.escape_cell s));
      Alcotest.(check string) "wire escape round trip" s
        (Persist.unescape_wire (Persist.escape_wire s)))
    [ ""; "\\"; "\t\n\\\001"; "a\\tb"; "x\\" ]

(* --- Allocation ceiling on the row writer --------------------------------------- *)

(* An 11-row result shaped like tipbench's [lookup]: drug, dosage and a
   3-period valid-time element per row. *)
let lookup_result () =
  let row i =
    [| Value.Str (Printf.sprintf "Drug%02d" i);
       Value.Int (10 * i);
       Values.element
         (Element.of_string_exn
            (Printf.sprintf
               "{[1999-01-%02d, 1999-02-28], [1999-04-01, 1999-06-30 12:00:00], \
                [2000-01-01, NOW]}"
               (i + 1))) |]
  in
  Protocol.Rows
    { names = [ "drug"; "dosage"; "valid" ]; rows = List.init 11 row }

(* Minor words [f] allocates, from its second call on. *)
let minor_words f =
  ignore (f ());
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  int_of_float (Gc.minor_words () -. before)

let within_ceiling what ~ceiling f =
  let words = minor_words f in
  if words > ceiling then
    Alcotest.failf "%s allocated %d minor words (ceiling %d)" what words ceiling

(* Each ceiling is twice the count measured on OCaml 5.1.1 (92, 920,
   14 and 418 words), low enough that a Format or Printf call per cell,
   a string per row, a list cell per scanned period, or a copy per
   keyword probe or scanned number would cross it. *)
let check_write_allocation () =
  let response = lookup_result () in
  let oc = open_out_bin Filename.null in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      within_ceiling "write_response, 11-row lookup result" ~ceiling:152
        (fun () -> Protocol.write_response oc response))

let check_read_allocation () =
  let path = Filename.temp_file "tip_wire" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Protocol.write_response oc (lookup_result ());
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          within_ceiling "read_response, 11-row lookup result" ~ceiling:1_840
            (fun () ->
              seek_in ic 0;
              Protocol.read_response ic)))

(* The scanner's primitives allocate nothing at all: a chronon or an
   instant costs only its cursor (a four-field record, 5 words), and an
   element the cursor and the one array it is stored as. *)
let check_scan_allocation () =
  let per_call what expected f =
    let words = minor_words (fun () -> for _ = 1 to 100 do ignore (Sys.opaque_identity (f ())) done) in
    Alcotest.(check int) (what ^ ", minor words for 100 parses") (100 * expected) words
  in
  per_call "chronon" 5 (fun () -> Chronon.of_string_exn " 1999-06-30 12:00:00 ");
  per_call "instant" 5 (fun () -> Instant.of_string_exn "NOW - 7 12:00:00");
  per_call "span" 5 (fun () -> Span.of_string_exn "-7 12:00:00");
  (* cursor, then 6 endpoints plus a header *)
  per_call "element" (5 + 7) (fun () ->
      Element.of_string_exn
        "{[1999-01-01, 1999-02-28], [1999-04-01 08:00:00, NOW-1], [NOW, NOW+2]}")

let three_periods =
  "{[1999-01-01, 1999-02-28], [1999-04-01, 1999-06-30 12:00:00], [2000-01-01, NOW]}"

let check_literal_allocation () =
  within_ceiling "Element.of_string, 3 periods" ~ceiling:28 (fun () ->
      Element.of_string three_periods)

(* Every literal parser over the recorded corpus of well-formed and
   malformed literals: the same accepted values, rejections and error
   texts as the record-cursor scanners the one-pass scanner replaced. *)
let check_literal_corpus () =
  let got = String.split_on_char '\n' (Literal_corpus.render ())
  and want = String.split_on_char '\n' Literal_corpus_expected.text in
  List.iteri
    (fun i w ->
      match List.nth_opt got i with
      | Some g when String.equal g w -> ()
      | g ->
        Alcotest.failf "corpus line %d:\n  want %s\n  got  %s" (i + 1) w
          (Option.value g ~default:"<missing>"))
    want;
  Alcotest.(check int) "corpus lines" (List.length want) (List.length got)

let lookup_sql =
  "SELECT drug, dosage, valid FROM Prescription WHERE patient = 'Patient0042'"

let check_parse_allocation () =
  within_ceiling "Parser.parse_with_tokens, lookup" ~ceiling:836 (fun () ->
      Tip_sql.Parser.parse_with_tokens lookup_sql)

let suite =
  [ Alcotest.test_case "printer edge cases" `Quick check_printer_edges;
    Alcotest.test_case "\\x01, tab, newline, backslash round trip" `Quick
      check_separator_in_strings;
    Alcotest.test_case "escape fast path" `Quick check_escape_fast_path;
    Alcotest.test_case "row arity" `Quick check_row_arity;
    Alcotest.test_case "write_response allocation ceiling" `Quick
      check_write_allocation;
    Alcotest.test_case "read_response allocation ceiling" `Quick
      check_read_allocation;
    Alcotest.test_case "scanner primitives allocate nothing" `Quick
      check_scan_allocation;
    Alcotest.test_case "element literal allocation ceiling" `Quick
      check_literal_allocation;
    Alcotest.test_case "literal corpus = recorded parser results" `Quick
      check_literal_corpus;
    Alcotest.test_case "statement parse allocation ceiling" `Quick
      check_parse_allocation ]
  @ List.map QCheck_alcotest.to_alcotest
      (prop_printers @ prop_edge_year_printers @ prop_roundtrips
      @ prop_respaced_elements
      @ [ prop_edge_year_roundtrip; prop_rows_roundtrip ])
