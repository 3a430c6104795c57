open Tip_core

let chronon = Alcotest.testable Chronon.pp Chronon.equal
let span = Alcotest.testable Span.pp Span.equal
let instant = Alcotest.testable Instant.pp Instant.equal

(* The paper's running example: "NOW-1 becomes 1999-08-31 if today's date
   is 1999-09-01". *)
let today = Chronon.of_ymd 1999 9 1

let check_binding () =
  let yesterday = Instant.now_minus (Span.of_days 1) in
  Alcotest.check chronon "NOW-1 under 1999-09-01" (Chronon.of_ymd 1999 8 31)
    (Instant.bind ~now:today yesterday);
  Alcotest.check chronon "NOW itself" today (Instant.bind ~now:today Instant.now);
  Alcotest.check chronon "fixed instants ignore now" (Chronon.of_ymd 1980 1 1)
    (Instant.bind ~now:today (Instant.of_chronon (Chronon.of_ymd 1980 1 1)))

let check_notation () =
  Alcotest.(check string) "NOW" "NOW" (Instant.to_string Instant.now);
  Alcotest.(check string) "NOW-1" "NOW-1"
    (Instant.to_string (Instant.now_minus (Span.of_days 1)));
  Alcotest.(check string) "NOW+7 12:00:00" "NOW+7 12:00:00"
    (Instant.to_string
       (Instant.now_plus (Span.of_dhms ~days:7 ~hours:12 ~minutes:0 ~seconds:0)));
  Alcotest.(check string) "fixed" "1999-09-01"
    (Instant.to_string (Instant.of_chronon today))

let check_parse () =
  Alcotest.check instant "NOW" Instant.now (Instant.of_string_exn "NOW");
  Alcotest.check instant "now case-insensitive" Instant.now
    (Instant.of_string_exn "now");
  Alcotest.check instant "NOW-1" (Instant.now_minus (Span.of_days 1))
    (Instant.of_string_exn "NOW-1");
  Alcotest.check instant "NOW - 1 with spaces" (Instant.now_minus (Span.of_days 1))
    (Instant.of_string_exn "NOW - 1");
  Alcotest.check instant "chronon literal" (Instant.of_chronon today)
    (Instant.of_string_exn "1999-09-01");
  Alcotest.(check (option reject)) "rejects NOW*2" None (Instant.of_string "NOW*2")

let check_comparison_moves_with_time () =
  (* "the result of comparing a Chronon to a NOW-relative Instant may
     change as time advances" *)
  let cutoff = Instant.of_chronon (Chronon.of_ymd 1999 9 15) in
  let week_ago = Instant.now_minus (Span.of_weeks 1) in
  let early = Chronon.of_ymd 1999 9 1 in
  let late = Chronon.of_ymd 1999 10 1 in
  Alcotest.(check bool) "before cutoff when asked early" true
    (Instant.compare_at ~now:early week_ago cutoff < 0);
  Alcotest.(check bool) "after cutoff when asked late" true
    (Instant.compare_at ~now:late week_ago cutoff > 0)

let check_arith () =
  Alcotest.check instant "NOW-1 plus 1 day is NOW" Instant.now
    (Instant.add (Instant.now_minus (Span.of_days 1)) (Span.of_days 1));
  Alcotest.check span "diff of two NOW-relatives ignores now"
    (Span.of_days 6)
    (Instant.diff ~now:today (Instant.now_minus (Span.of_days 1))
       (Instant.now_minus (Span.of_weeks 1)));
  Alcotest.check span "mixed diff uses now" (Span.of_days 1)
    (Instant.diff ~now:today Instant.now
       (Instant.of_chronon (Chronon.of_ymd 1999 8 31)))

let check_structural_equality () =
  Alcotest.(check bool) "NOW-1 <> the chronon it binds to" false
    (Instant.equal
       (Instant.now_minus (Span.of_days 1))
       (Instant.of_chronon (Chronon.of_ymd 1999 8 31)))

let instant_arb =
  let open QCheck in
  let fixed =
    map (fun s -> Instant.of_chronon (Chronon.of_unix_seconds s))
      (int_range (-3_000_000_000) 3_000_000_000)
  in
  let relative =
    map (fun s -> Instant.now_plus (Span.of_seconds s))
      (int_range (-100_000_000) 100_000_000)
  in
  let base = oneof [ fixed; relative ] in
  set_print Instant.to_string base

let prop_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip" ~count:2000 instant_arb
    (fun i -> Instant.equal i (Instant.of_string_exn (Instant.to_string i)))

let prop_bind_add =
  QCheck.Test.make ~name:"bind commutes with add" ~count:1000
    QCheck.(pair instant_arb (int_range (-1_000_000) 1_000_000))
    (fun (i, s) ->
      let sp = Span.of_seconds s in
      Chronon.equal
        (Instant.bind ~now:today (Instant.add i sp))
        (Chronon.add (Instant.bind ~now:today i) sp))

(* --- The immediate encoding against the two-constructor type ------------ *)

(* The representation instants had before they became immediate ints,
   kept as the reference model the encoding must agree with. *)
type model = Fixed of int | Now_relative of int

let of_model = function
  | Fixed c -> Instant.of_chronon (Chronon.of_unix_seconds c)
  | Now_relative o -> Instant.now_plus (Span.of_seconds o)

let model_bind ~now = function Fixed c -> c | Now_relative o -> now + o

let model_diff ~now a b =
  match a, b with
  | Now_relative x, Now_relative y -> x - y
  | _, _ -> model_bind ~now a - model_bind ~now b

let model_add m s =
  match m with Fixed c -> Fixed (c + s) | Now_relative o -> Now_relative (o + s)

let payload = function Fixed x | Now_relative x -> x

(* Both ends of the representable range and their neighbours. *)
let range_ends =
  [ Instant.min_seconds; Instant.min_seconds + 1; -1; 0; 1;
    Instant.max_seconds - 1; Instant.max_seconds ]

let model_arb =
  let open QCheck in
  let seconds =
    Gen.oneof [ Gen.oneofl range_ends; Gen.int_range (-3_000_000_000) 3_000_000_000 ]
  in
  make
    ~print:(fun m -> Instant.to_string (of_model m))
    (Gen.map2 (fun fixed s -> if fixed then Fixed s else Now_relative s) Gen.bool seconds)

let prop_matches_model =
  QCheck.Test.make ~name:"encoding agrees with the two-constructor model"
    ~count:2000
    QCheck.(triple model_arb model_arb (int_range (-1_000_000_000) 1_000_000_000))
    (fun (ma, mb, s) ->
      let a = of_model ma and b = of_model mb in
      let now = Chronon.to_unix_seconds today in
      let moved = payload ma + s in
      Chronon.to_unix_seconds (Instant.bind ~now:today a) = model_bind ~now ma
      && Span.to_seconds (Instant.diff ~now:today a b) = model_diff ~now ma mb
      && Instant.compare_at ~now:today a b
         = Int.compare (model_bind ~now ma) (model_bind ~now mb)
      && Instant.equal a b = (ma = mb)
      && Instant.is_now_relative a
         = (match ma with Now_relative _ -> true | Fixed _ -> false)
      && (moved < Instant.min_seconds || moved > Instant.max_seconds
         || Instant.equal (Instant.add a (Span.of_seconds s)) (of_model (model_add ma s))))

(* Both ends of the range print and parse back. One second past either
   end still prints as a chronon or span, but the instant parser refuses
   it rather than wrap it. *)
let check_range_ends () =
  List.iter
    (fun x ->
      List.iter
        (fun i ->
          let text = Instant.to_string i in
          Alcotest.(check (option instant)) text (Some i) (Instant.of_string text))
        [ Instant.of_chronon (Chronon.of_unix_seconds x);
          Instant.now_plus (Span.of_seconds x) ])
    range_ends;
  List.iter
    (fun x ->
      let relative =
        (if x < 0 then "NOW" else "NOW+") ^ Span.to_string (Span.of_seconds x)
      in
      List.iter
        (fun text -> Alcotest.(check (option instant)) text None (Instant.of_string text))
        [ Chronon.to_string (Chronon.of_unix_seconds x); relative ])
    [ Instant.min_seconds - 1; Instant.max_seconds + 1 ];
  Alcotest.check_raises "of_chronon past the end"
    (Invalid_argument "Instant.of_chronon: out of range") (fun () ->
      ignore (Instant.of_chronon (Chronon.of_unix_seconds (Instant.max_seconds + 1))))

let suite =
  [ Alcotest.test_case "NOW binding" `Quick check_binding;
    Alcotest.test_case "range ends" `Quick check_range_ends;
    Alcotest.test_case "notation" `Quick check_notation;
    Alcotest.test_case "parsing" `Quick check_parse;
    Alcotest.test_case "comparison changes as time advances" `Quick
      check_comparison_moves_with_time;
    Alcotest.test_case "arithmetic" `Quick check_arith;
    Alcotest.test_case "structural equality keeps NOW symbolic" `Quick
      check_structural_equality;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_bind_add;
    QCheck_alcotest.to_alcotest prop_matches_model ]
