open Tip_core

let chronon = Alcotest.testable Chronon.pp Chronon.equal
let span = Alcotest.testable Span.pp Span.equal

let check_civil () =
  let c = Chronon.of_civil ~year:1999 ~month:9 ~day:1 ~hour:12 ~minute:30 ~second:5 in
  Alcotest.(check (list int)) "roundtrip"
    [ 1999; 9; 1; 12; 30; 5 ]
    (let y, m, d, hh, mm, ss = Chronon.to_civil c in [ y; m; d; hh; mm; ss ])

let check_epoch () =
  Alcotest.check chronon "epoch is 1970-01-01" Chronon.epoch
    (Chronon.of_ymd 1970 1 1);
  Alcotest.(check string) "prints date-only at midnight" "1970-01-01"
    (Chronon.to_string Chronon.epoch)

let check_y2k () =
  (* "And yes, TIP is Y2K-compliant!" *)
  let before = Chronon.of_civil ~year:1999 ~month:12 ~day:31 ~hour:23 ~minute:59 ~second:59 in
  let after = Chronon.succ before in
  Alcotest.check chronon "rollover" (Chronon.of_ymd 2000 1 1) after;
  Alcotest.(check bool) "2000 is a leap year" true (Chronon.is_leap_year 2000);
  Alcotest.(check bool) "1900 is not" false (Chronon.is_leap_year 1900);
  Alcotest.(check int) "feb 2000" 29 (Chronon.days_in_month 2000 2)

let check_pre_epoch () =
  let c = Chronon.of_ymd 1969 12 31 in
  Alcotest.(check string) "negative seconds print correctly" "1969-12-31"
    (Chronon.to_string c);
  Alcotest.check span "one day before epoch" (Span.of_days (-1))
    (Chronon.diff c Chronon.epoch)

let check_parse () =
  let famous = Chronon.of_string_exn "1970-01-01 00:00:00" in
  Alcotest.check chronon "famous chronon" Chronon.epoch famous;
  Alcotest.check chronon "date only" (Chronon.of_ymd 1999 9 1)
    (Chronon.of_string_exn "1999-09-01");
  Alcotest.(check (option reject)) "rejects month 13" None
    (Chronon.of_string "1999-13-01");
  Alcotest.(check (option reject)) "rejects feb 30" None
    (Chronon.of_string "1999-02-30");
  Alcotest.(check (option reject)) "rejects trailing garbage" None
    (Chronon.of_string "1999-02-03 xyz")

(* A number too long for an int is a parse error like any other, never
   an escaping [Failure]. *)
let check_overflow () =
  let rejects what s =
    Alcotest.(check (option reject)) what None (Chronon.of_string s);
    match Chronon.of_string_exn s with
    | _ -> Alcotest.failf "%s: %S accepted" what s
    | exception Scan.Parse_error _ -> ()
  in
  rejects "20-digit year" "99999999999999999999-01-01";
  rejects "20-digit month" "1999-99999999999999999999-01";
  rejects "20-digit second" "1999-01-01 00:00:99999999999999999999";
  rejects "max_int + 1" "4611686018427387904-01-01";
  Alcotest.(check (option reject)) "20-digit span" None
    (Span.of_string "99999999999999999999");
  Alcotest.(check (option reject)) "days past the second range" None
    (Span.of_string "999999999999999");
  Alcotest.(check (option reject)) "20-digit NOW offset" None
    (Instant.of_string "NOW+99999999999999999999")

let check_arith () =
  let c = Chronon.of_ymd 1999 9 1 in
  Alcotest.check chronon "add week" (Chronon.of_ymd 1999 9 8)
    (Chronon.add c (Span.of_weeks 1));
  Alcotest.check chronon "sub day" (Chronon.of_ymd 1999 8 31)
    (Chronon.sub c (Span.of_days 1));
  Alcotest.check span "diff" (Span.of_days 31)
    (Chronon.diff (Chronon.of_ymd 1999 10 2) c);
  Alcotest.check chronon "start_of_day"
    (Chronon.of_ymd 1999 9 1)
    (Chronon.start_of_day
       (Chronon.of_civil ~year:1999 ~month:9 ~day:1 ~hour:23 ~minute:1 ~second:2))

let check_leap_days () =
  Alcotest.check span "1999 has 365 days" (Span.of_days 365)
    (Chronon.diff (Chronon.of_ymd 2000 1 1) (Chronon.of_ymd 1999 1 1));
  Alcotest.check span "2000 has 366 days" (Span.of_days 366)
    (Chronon.diff (Chronon.of_ymd 2001 1 1) (Chronon.of_ymd 2000 1 1))

let civil_gen =
  let open QCheck.Gen in
  let* year = int_range 1 9999 in
  let* month = int_range 1 12 in
  let* day = int_range 1 (Chronon.days_in_month year month) in
  let* hour = int_range 0 23 in
  let* minute = int_range 0 59 in
  let* second = int_range 0 59 in
  return (year, month, day, hour, minute, second)

let civil_arb =
  QCheck.make ~print:(fun (y, m, d, hh, mm, ss) ->
      Printf.sprintf "%d-%d-%d %d:%d:%d" y m d hh mm ss)
    civil_gen

let prop_civil_roundtrip =
  QCheck.Test.make ~name:"civil roundtrip" ~count:2000 civil_arb
    (fun (y, m, d, hh, mm, ss) ->
      let c = Chronon.of_civil ~year:y ~month:m ~day:d ~hour:hh ~minute:mm ~second:ss in
      Chronon.to_civil c = (y, m, d, hh, mm, ss))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip" ~count:2000 civil_arb
    (fun (y, m, d, hh, mm, ss) ->
      let c = Chronon.of_civil ~year:y ~month:m ~day:d ~hour:hh ~minute:mm ~second:ss in
      Chronon.equal c (Chronon.of_string_exn (Chronon.to_string c)))

let prop_order_preserved =
  QCheck.Test.make ~name:"seconds order = chronon order" ~count:2000
    QCheck.(pair (int_range (-4102444800) 4102444800) (int_range (-4102444800) 4102444800))
    (fun (a, b) ->
      let ca = Chronon.of_unix_seconds a and cb = Chronon.of_unix_seconds b in
      Chronon.compare ca cb = Int.compare a b)

(* --- Date and instant literals against oracles ------------------------ *)

(* Date literals around the scanner's edges: years 0000, 9999, 10000
   and negative ones, months and days out of range (Feb 29 and
   30 included), an optional time that may itself be out of range, and
   text after it. *)
let date_literal_gen =
  let open QCheck.Gen in
  let* year =
    frequency
      [ (3, int_range 0 9999);
        (2, oneofl [ 0; 1; 999; 1000; 1900; 2000; 2001; 9999; 10_000; 12_345 ]);
        (1, int_range (-10_000) (-1)) ]
  in
  let* month = frequency [ (4, int_range 1 12); (1, oneofl [ 0; 2; 13 ]) ] in
  let* day = frequency [ (4, int_range 1 28); (2, oneofl [ 0; 29; 30; 31; 32 ]) ] in
  let* time =
    opt (triple (int_range 0 24) (int_range 0 60) (int_range 0 60))
  in
  let* tail = oneofl [ ""; ""; ""; " "; "x"; "0"; " 1"; ":"; "-" ] in
  let date = Printf.sprintf "%04d-%02d-%02d" year month day in
  let text =
    match time with
    | None -> date ^ tail
    | Some (h, m, s) -> Printf.sprintf "%s %02d:%02d:%02d%s" date h m s tail
  in
  return ((year, month, day, time, tail), text)

let valid_civil (year, month, day, time, _) =
  let hour, minute, second = Option.value time ~default:(0, 0, 0) in
  match Chronon.of_civil ~year ~month ~day ~hour ~minute ~second with
  | c -> Some c
  | exception Invalid_argument _ -> None

(* With nothing after it, a literal parses exactly when its fields make
   a civil date. *)
let prop_date_literal_oracle =
  QCheck.Test.make ~name:"date literal = civil-field oracle" ~count:3000
    (QCheck.make ~print:snd date_literal_gen)
    (fun ((_, _, _, _, tail) as fields, text) ->
      QCheck.assume (tail = "" || tail = " ");
      Option.equal Chronon.equal (Chronon.of_string text) (valid_civil fields))

(* NOW-relative instants never reach the date path; fixed ones agree
   with the chronon parser. *)
let prop_instant_literals =
  let gen =
    let open QCheck.Gen in
    oneof
      [ map (fun (_, text) -> text) date_literal_gen;
        (let* sign = oneofl [ ""; "+"; "-"; " + "; " - " ] in
         let* days = int_range 0 100_000 in
         let* time = opt (triple (int_range 0 24) (int_range 0 60) (int_range 0 60)) in
         return
           (if sign = "" then "NOW"
            else
              match time with
              | None -> Printf.sprintf "NOW%s%d" sign days
              | Some (h, m, s) ->
                Printf.sprintf "NOW%s%d %02d:%02d:%02d" sign days h m s)) ]
  in
  QCheck.Test.make ~name:"instant literal = chronon or NOW±span" ~count:2000
    (QCheck.make ~print:Fun.id gen)
    (fun text ->
      let expected =
        if String.length text >= 3 && String.sub text 0 3 = "NOW" then begin
          let rest = String.trim (String.sub text 3 (String.length text - 3)) in
          if rest = "" then Some Instant.now
          else
            let sign = rest.[0] in
            let span =
              Span.of_string
                (String.trim (String.sub rest 1 (String.length rest - 1)))
            in
            Option.map
              (fun sp ->
                if sign = '-' then Instant.now_minus sp else Instant.now_plus sp)
              span
        end
        else Option.map Instant.of_chronon (Chronon.of_string text)
      in
      Option.equal Instant.equal (Instant.of_string text) expected)

let suite =
  [ Alcotest.test_case "civil components roundtrip" `Quick check_civil;
    Alcotest.test_case "epoch" `Quick check_epoch;
    Alcotest.test_case "y2k rollover and leap rules" `Quick check_y2k;
    Alcotest.test_case "pre-epoch dates" `Quick check_pre_epoch;
    Alcotest.test_case "parsing and validation" `Quick check_parse;
    Alcotest.test_case "numbers past max_int" `Quick check_overflow;
    Alcotest.test_case "arithmetic" `Quick check_arith;
    Alcotest.test_case "leap-year day counts" `Quick check_leap_days;
    QCheck_alcotest.to_alcotest prop_civil_roundtrip;
    QCheck_alcotest.to_alcotest prop_string_roundtrip;
    QCheck_alcotest.to_alcotest prop_order_preserved;
    QCheck_alcotest.to_alcotest prop_date_literal_oracle;
    QCheck_alcotest.to_alcotest prop_instant_literals ]
