(* TIP DataBlade tests: the paper's medical database and all of its
   worked queries, end-to-end through SQL. *)

open Tip_core
open Tip_storage
module Db = Tip_engine.Database

let exec = Db.exec
let rows db sql = Db.rows_exn (exec db sql)

let value = Alcotest.testable Value.pp Value.equal

let check_row_list msg expected actual =
  Alcotest.(check (list (list value))) msg expected (List.map Array.to_list actual)

let str s = Value.Str s

(* The demo is frozen on 1999-10-15 ("fully functional in October 1999"). *)
let demo_now = Chronon.of_ymd 1999 10 15

let medical_db () =
  let db = Tip_blade.Blade.create_database () in
  ignore (exec db "SET NOW = '1999-10-15'");
  ignore
    (exec db
       "CREATE TABLE Prescription (doctor CHAR(20), patient CHAR(20), \
        patientdob Chronon, drug CHAR(20), dosage INT, frequency Span, \
        valid Element)");
  List.iter
    (fun sql -> ignore (exec db sql))
    [ (* the paper's INSERT, verbatim *)
      "INSERT INTO Prescription VALUES ('Dr.Pepper', 'Mr.Showbiz', \
       '1962-03-03', 'Diabeta', 1, '0 08:00:00', '{[1999-10-01, NOW]}')";
      "INSERT INTO Prescription VALUES ('Dr.No', 'Mr.Showbiz', '1962-03-03', \
       'Aspirin', 2, '0 12:00:00', '{[1999-09-20, 1999-10-05]}')";
      "INSERT INTO Prescription VALUES ('Dr.No', 'Ms.Stone', '1999-09-20', \
       'Tylenol', 1, '1', '{[1999-09-25, 1999-10-02]}')";
      "INSERT INTO Prescription VALUES ('Dr.Pepper', 'Ms.Stone', \
       '1999-09-20', 'Aspirin', 1, '2', '{[1999-11-01, 1999-11-15]}')";
      "INSERT INTO Prescription VALUES ('Dr.Who', 'Mr.Bean', '1955-01-01', \
       'Prozac', 1, '1', '{[1999-01-01, 1999-04-30], [1999-07-01, \
       1999-10-31]}')" ];
  db

(* --- Datatype round trips through the engine ------------------------------ *)

let check_storage_roundtrip () =
  let db = medical_db () in
  check_row_list "element stored symbolically (NOW preserved)"
    [ [ str "{[1999-10-01, NOW]}" ] ]
    (rows db "SELECT valid::CHAR FROM Prescription WHERE drug = 'Diabeta'");
  check_row_list "chronon column"
    [ [ str "1962-03-03" ] ]
    (rows db
       "SELECT patientdob::CHAR FROM Prescription WHERE drug = 'Diabeta'");
  check_row_list "span column"
    [ [ str "0 08:00:00" ] ]
    (rows db "SELECT frequency::CHAR FROM Prescription WHERE drug = 'Diabeta'")

(* --- The paper's Section 2 queries ------------------------------------------ *)

let check_tylenol_query () =
  let db = medical_db () in
  (* "patients who were prescribed Tylenol when they were less than w
     weeks old" — Ms.Stone was born 1999-09-20 and started Tylenol on
     1999-09-25, i.e. at 5 days old. *)
  let query =
    "SELECT patient FROM Prescription WHERE drug = 'Tylenol' AND \
     start(valid) - patientdob < '7 00:00:00'::Span * :w"
  in
  check_row_list "w = 1 week: Ms.Stone matches"
    [ [ str "Ms.Stone" ] ]
    (Db.rows_exn (Db.exec ~params:[ ("w", Value.Int 1) ] db query));
  check_row_list "w = 0 weeks: no one" []
    (Db.rows_exn (Db.exec ~params:[ ("w", Value.Int 0) ] db query))

let check_self_join_query () =
  let db = medical_db () in
  (* "who has taken Diabeta and Aspirin simultaneously, and exactly when" *)
  let r =
    rows db
      "SELECT p1.patient, intersect(p1.valid, p2.valid)::CHAR FROM \
       Prescription p1, Prescription p2 WHERE p1.drug = 'Diabeta' AND \
       p2.drug = 'Aspirin' AND p1.patient = p2.patient AND \
       overlaps(p1.valid, p2.valid)"
  in
  (* Diabeta [1999-10-01, NOW], Aspirin [1999-09-20, 1999-10-05]; with NOW
     = 1999-10-15 they overlap during [1999-10-01, 1999-10-05]. *)
  check_row_list "overlap computed"
    [ [ str "Mr.Showbiz"; str "{[1999-10-01, 1999-10-05]}" ] ]
    r

let check_coalesce_query () =
  let db = medical_db () in
  (* length(group_union(valid)) vs the broken SUM(length(valid)):
     Mr.Showbiz has Diabeta [10-01, NOW=10-15] (14 days) and Aspirin
     [09-20, 10-05] (15 days) overlapping during [10-01, 10-05]; the
     coalesced length is 25 days while the naive SUM double-counts 29. *)
  check_row_list "temporal coalescing via group_union"
    [ [ str "Mr.Bean"; str "241" ];
      [ str "Mr.Showbiz"; str "25" ];
      [ str "Ms.Stone"; str "21" ] ]
    (rows db
       "SELECT patient, (length(group_union(valid))::INT / 86400)::CHAR \
        FROM Prescription GROUP BY patient ORDER BY patient");
  check_row_list "naive SUM double-counts overlapped care"
    [ [ str "Mr.Showbiz"; Value.Int 29 ] ]
    (rows db
       "SELECT patient, SUM(length(valid)::INT) / 86400 FROM Prescription \
        WHERE patient = 'Mr.Showbiz' GROUP BY patient")

(* --- NOW semantics ------------------------------------------------------------- *)

let check_now_shifts_results () =
  let db = medical_db () in
  let active_query =
    "SELECT drug FROM Prescription WHERE patient = 'Mr.Showbiz' AND \
     contains(valid, now()) ORDER BY drug"
  in
  check_row_list "both drugs active on 1999-10-03 (what-if past)"
    [ [ str "Aspirin" ]; [ str "Diabeta" ] ]
    (let _ = exec db "SET NOW = '1999-10-03'" in
     rows db active_query);
  check_row_list "only the open-ended Diabeta active later"
    [ [ str "Diabeta" ] ]
    (let _ = exec db "SET NOW = '1999-12-01'" in
     rows db active_query);
  (* Comparing a Chronon column to a NOW-relative instant: the answer
     changes as time advances, with unchanged data. *)
  let recent = "SELECT patient FROM Prescription WHERE patientdob > 'NOW-30'" in
  check_row_list "Ms.Stone is under 30 days old in mid-October"
    [ [ str "Ms.Stone" ]; [ str "Ms.Stone" ] ]
    (let _ = exec db "SET NOW = '1999-10-15'" in
     rows db recent);
  check_row_list "nobody is, a year later" []
    (let _ = exec db "SET NOW = '2000-10-15'" in
     rows db recent)

let check_set_now_roundtrip () =
  let db = medical_db () in
  (match exec db "SET NOW = '2001-05-05'" with
  | Db.Message m ->
    Alcotest.(check string) "message" "NOW set to 2001-05-05" m
  | _ -> Alcotest.fail "expected message");
  Alcotest.(check bool) "override recorded" true
    (Db.now_override db = Some (Chronon.of_ymd 2001 5 5));
  ignore (exec db "SET NOW DEFAULT");
  Alcotest.(check bool) "override cleared" true (Db.now_override db = None)

(* --- Casts ----------------------------------------------------------------------- *)

let check_casts () =
  let db = medical_db () in
  let one sql = match rows db sql with [ [| v |] ] -> v | _ -> Alcotest.fail sql in
  Alcotest.check value "chronon to period (paper example)"
    (str "[1970-01-01, 1970-01-01]")
    (one "SELECT '1970-01-01'::Chronon::Period::CHAR");
  Alcotest.check value "NOW-1 to chronon binds transaction time"
    (str "1999-10-14")
    (one "SELECT 'NOW-1'::Instant::Chronon::CHAR");
  Alcotest.check value "span seconds"
    (Value.Int 86400)
    (one "SELECT '1'::Span::INT");
  Alcotest.check value "date to chronon is implicit in comparisons"
    (Value.Bool true)
    (one "SELECT '1999-01-01'::DATE = '1999-01-01'::Chronon");
  Alcotest.check value "string parses via cast"
    (str "{[1999-01-01, 1999-12-31]}")
    (one "SELECT '{[1999-01-01, 1999-12-31]}'::Element::CHAR");
  (match exec db "SELECT '1999-13-01'::Chronon" with
  | exception Value.Type_error _ -> ()
  | _ -> Alcotest.fail "bad literal must fail")

let check_operator_overloads () =
  let db = medical_db () in
  let one sql = match rows db sql with [ [| v |] ] -> v | _ -> Alcotest.fail sql in
  Alcotest.check value "chronon + span"
    (str "1999-01-08")
    (one "SELECT ('1999-01-01'::Chronon + '7'::Span)::CHAR");
  Alcotest.check value "chronon - chronon = span"
    (str "31") (one "SELECT ('1999-02-01'::Chronon - '1999-01-01'::Chronon)::CHAR");
  Alcotest.check value "span * int"
    (str "14") (one "SELECT ('7'::Span * 2)::CHAR");
  Alcotest.check value "span / span"
    (Value.Float 3.5) (one "SELECT '7'::Span / '2'::Span");
  Alcotest.check value "chronon < instant (NOW-relative)"
    (Value.Bool true)
    (one "SELECT '1999-10-10'::Chronon < 'NOW'::Instant");
  (* "a Chronon plus a Chronon returns a type error" *)
  (match exec db "SELECT '1999-01-01'::Chronon + '1999-01-01'::Chronon" with
  | exception Tip_engine.Expr_eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "chronon + chronon must be a type error")

let check_allen_in_sql () =
  let db = medical_db () in
  let one sql = match rows db sql with [ [| v |] ] -> v | _ -> Alcotest.fail sql in
  Alcotest.check value "before"
    (Value.Bool true)
    (one
       "SELECT before('[1999-01-01, 1999-01-31]'::Period, \
        '[1999-03-01, 1999-03-31]'::Period)");
  Alcotest.check value "allen_relation routine"
    (str "during")
    (one
       "SELECT allen_relation('[1999-02-01, 1999-02-15]'::Period, \
        '[1999-01-01, 1999-12-31]'::Period)");
  Alcotest.check value "period intersect returns NULL when disjoint"
    (Value.Bool true)
    (one
       "SELECT intersect('[1999-01-01, 1999-01-31]'::Period, \
        '[1999-03-01, 1999-03-31]'::Period) IS NULL")

let check_element_routines_in_sql () =
  let db = medical_db () in
  let one sql = match rows db sql with [ [| v |] ] -> v | _ -> Alcotest.fail sql in
  Alcotest.check value "union"
    (str "{[1999-01-01, 1999-06-30]}")
    (one
       "SELECT union('{[1999-01-01, 1999-03-31]}'::Element, \
        '{[1999-02-01, 1999-06-30]}'::Element)::CHAR");
  Alcotest.check value "difference"
    (str "{[1999-01-01, 1999-01-31 23:59:59]}")
    (one
       "SELECT difference('{[1999-01-01, 1999-03-31]}'::Element, \
        '{[1999-02-01, 1999-06-30]}'::Element)::CHAR");
  Alcotest.check value "count_periods after coalescing"
    (Value.Int 1)
    (one
       "SELECT count_periods('{[1999-01-01, 1999-03-31], [1999-02-01, \
        1999-04-30]}'::Element)");
  Alcotest.check value "contains element/chronon via implicit cast"
    (Value.Bool true)
    (one
       "SELECT contains('{[1999-01-01, 1999-12-31]}'::Element, \
        '1999-06-15'::Chronon)");
  (* Chronons are second-granularity, so adjacency means end + 1 second. *)
  Alcotest.check value "set equality under NOW merges adjacent periods"
    (Value.Bool true)
    (one
       "SELECT '{[1999-01-01, 1999-03-31 23:59:59], [1999-04-01, \
        1999-06-30]}'::Element = '{[1999-01-01, 1999-06-30]}'::Element");
  Alcotest.check value "midnight-to-midnight periods leave a gap"
    (Value.Bool false)
    (one
       "SELECT '{[1999-01-01, 1999-03-31], [1999-04-01, \
        1999-06-30]}'::Element = '{[1999-01-01, 1999-06-30]}'::Element")

(* --- Interval index over elements ----------------------------------------------- *)

let check_interval_index () =
  let db = medical_db () in
  ignore (exec db "CREATE INDEX presc_valid ON Prescription (valid) USING INTERVAL");
  let window_query =
    "SELECT drug FROM Prescription WHERE overlaps(valid, \
     '{[1999-09-22, 1999-09-26]}'::Element) ORDER BY drug"
  in
  (match exec db ("EXPLAIN " ^ window_query) with
  | Db.Message plan ->
    Alcotest.(check bool) "interval scan chosen" true
      (try
         ignore (Str.search_forward (Str.regexp_string "IntervalScan") plan 0);
         true
       with Not_found -> false)
  | _ -> Alcotest.fail "expected plan");
  check_row_list "window query answers match"
    [ [ str "Aspirin" ]; [ str "Prozac" ]; [ str "Tylenol" ] ]
    (rows db window_query);
  (* The NOW-relative Diabeta row has an open-ended extent: any future
     window must still find it. *)
  check_row_list "NOW-relative rows always candidate, recheck decides"
    [ [ str "Diabeta" ]; [ str "Prozac" ] ]
    (rows db
       "SELECT drug FROM Prescription WHERE overlaps(valid, \
        '{[1999-10-10, 1999-10-12]}'::Element) ORDER BY drug")

(* --- Persistence with blade values ------------------------------------------------ *)

let check_persistence_with_blade () =
  let db = medical_db () in
  let path = Filename.temp_file "tip_medical" ".snapshot" in
  Tip_storage.Persist.save (Db.catalog db) path;
  let catalog = Tip_storage.Persist.load path in
  Sys.remove path;
  let table = Tip_storage.Catalog.table_exn catalog "prescription" in
  Alcotest.(check int) "rows preserved" 5 (Table.row_count table);
  (* NOW-relative timestamp must come back symbolic. *)
  let found = ref false in
  Table.iteri
    (fun _ row ->
      if Value.equal row.(3) (str "Diabeta") then begin
        found := true;
        Alcotest.(check string) "symbolic NOW survives disk"
          "{[1999-10-01, NOW]}"
          (Value.to_display_string row.(6))
      end)
    table;
  Alcotest.(check bool) "diabeta row found" true !found

(* --- group_intersect -------------------------------------------------------------- *)

let check_group_intersect () =
  let db = medical_db () in
  check_row_list "common period of all of Mr.Showbiz's prescriptions"
    [ [ str "{[1999-10-01, 1999-10-05]}" ] ]
    (rows db
       "SELECT group_intersect(valid)::CHAR FROM Prescription \
        WHERE patient = 'Mr.Showbiz'")

(* --- group_union = normalize of the concatenation ---------------------------- *)

(* One group's inputs: elements of up to four periods over a 60-second
   window (so duplicates and adjacent periods are common), some periods
   inverted (empty), some endpoints NOW-relative, and NULL inputs. *)
let base = Chronon.of_ymd 1999 1 1

let group_union_arb =
  let open QCheck in
  let gen =
    let open Gen in
    let instant =
      frequency
        [ (4, map (fun s -> Instant.of_chronon (Chronon.add base (Span.of_seconds s)))
                (int_range 0 60));
          (1, map (fun s -> Instant.now_minus (Span.of_seconds s)) (int_range (-10) 40)) ]
    in
    let element = list_size (int_range 0 4) (map2 Period.of_instants instant instant) in
    pair (int_range 0 60) (list_size (int_range 0 12) (opt ~ratio:0.85 element))
  in
  make
    ~print:(fun (now, inputs) ->
      Printf.sprintf "NOW=+%ds %s" now
        (String.concat " "
           (List.map
              (function
                | None -> "NULL"
                | Some ps -> Element.to_string (Element.of_periods ps))
              inputs)))
    gen

let prop_group_union_normalizes =
  QCheck.Test.make ~name:"group_union = normalize of the concatenation" ~count:300
    group_union_arb (fun (now_s, inputs) ->
      let now = Chronon.add base (Span.of_seconds now_s) in
      let db = Tip_blade.Blade.create_database () in
      ignore (exec db (Printf.sprintf "SET NOW = '%s'" (Chronon.to_string now)));
      ignore (exec db "CREATE TABLE u (valid Element)");
      let table = Catalog.table_exn (Db.catalog db) "u" in
      List.iter
        (fun input ->
          let v =
            match input with
            | None -> Value.Null
            | Some ps -> Tip_blade.Values.element (Element.of_periods ps)
          in
          ignore (Table.insert table [| v |]))
        inputs;
      let expected =
        Element.to_string
          (Element.normalize ~now
             (Element.of_periods (List.concat (List.filter_map Fun.id inputs))))
      in
      match rows db "SELECT group_union(valid) FROM u" with
      | [ [| got |] ] when Value.to_display_string got = expected -> true
      | result ->
        QCheck.Test.fail_reportf "expected %s, got %s" expected
          (String.concat "; "
             (List.map
                (fun r ->
                  String.concat "|" (Array.to_list (Array.map Value.to_display_string r)))
                result)))

let _ = demo_now

let suite =
  [ Alcotest.test_case "storage roundtrip of TIP values" `Quick
      check_storage_roundtrip;
    Alcotest.test_case "paper: Tylenol under-w-weeks query" `Quick
      check_tylenol_query;
    Alcotest.test_case "paper: Diabeta/Aspirin temporal self-join" `Quick
      check_self_join_query;
    Alcotest.test_case "paper: coalescing via group_union" `Quick
      check_coalesce_query;
    Alcotest.test_case "NOW changes results as time advances" `Quick
      check_now_shifts_results;
    Alcotest.test_case "SET NOW override" `Quick check_set_now_roundtrip;
    Alcotest.test_case "casts" `Quick check_casts;
    Alcotest.test_case "operator overloads" `Quick check_operator_overloads;
    Alcotest.test_case "Allen operators in SQL" `Quick check_allen_in_sql;
    Alcotest.test_case "element routines in SQL" `Quick
      check_element_routines_in_sql;
    Alcotest.test_case "interval index on elements" `Quick check_interval_index;
    Alcotest.test_case "persistence of blade values" `Quick
      check_persistence_with_blade;
    Alcotest.test_case "group_intersect aggregate" `Quick check_group_intersect;
    QCheck_alcotest.to_alcotest prop_group_union_normalizes ]
