(* Edge-case and failure-injection tests across the stack. *)

open Tip_core
open Tip_storage
module Db = Tip_engine.Database

let value = Alcotest.testable Value.pp Value.equal

let one db sql =
  match Db.rows_exn (Db.exec db sql) with
  | [ [| v |] ] -> v
  | _ -> Alcotest.failf "expected one value: %s" sql

(* --- CREATE TABLE AS SELECT ---------------------------------------------- *)

let check_ctas () =
  let db = Tip_blade.Blade.create_database () in
  ignore (Db.exec db "SET NOW = '1999-10-15'");
  ignore (Db.exec db Tip_workload.Medical.native_schema);
  List.iter (fun s -> ignore (Db.exec db s)) Tip_workload.Medical.demo_rows_sql;
  (match
     Db.exec db
       "CREATE TABLE showbiz AS SELECT patient, drug, valid FROM \
        Prescription WHERE patient = 'Mr.Showbiz'"
   with
  | Db.Message m ->
    Alcotest.(check string) "ctas message" "table showbiz created (2 rows)" m
  | _ -> Alcotest.fail "expected message");
  (* Inferred types: blade type survives, usable in temporal queries. *)
  Alcotest.check value "element column inferred" (Value.Int 2)
    (one db "SELECT COUNT(*) FROM showbiz WHERE overlaps(valid, \
             '{[1999-09-01, 1999-12-31]}'::Element)");
  (match Db.exec db "DESCRIBE showbiz" with
  | Db.Rows { rows; _ } ->
    Alcotest.(check bool) "type name recorded" true
      (List.exists
         (fun r -> Value.to_display_string r.(1) = "Element")
         rows)
  | _ -> Alcotest.fail "describe");
  (* All-NULL columns default to TEXT. *)
  ignore (Db.exec db "CREATE TABLE nulls AS SELECT NULL AS x FROM Prescription");
  (match Db.exec db "DESCRIBE nulls" with
  | Db.Rows { rows = [ r ]; _ } ->
    Alcotest.(check string) "null column type" "TEXT"
      (Value.to_display_string r.(1))
  | _ -> Alcotest.fail "describe nulls")

(* --- Persistence failure injection ------------------------------------------ *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let check_persist_failures () =
  let tmp = Filename.temp_file "tip_bad" ".snapshot" in
  let expect_format_error contents =
    write_file tmp contents;
    match Persist.load tmp with
    | exception Persist.Format_error _ -> ()
    | _ -> Alcotest.failf "expected Format_error for %S" contents
  in
  expect_format_error "";
  expect_format_error "not a snapshot\n";
  expect_format_error "tipdb 1\ntable t\nbogus line\n";
  expect_format_error "tipdb 1\ntable t\ncolumn a INT - 0 0\nrows 2\n1\n";
  (* row arity mismatch *)
  expect_format_error
    "tipdb 1\ntable t\ncolumn a INT - 0 0\ncolumn b INT - 0 0\nrows 1\n1\nend\n";
  (* unknown stored type *)
  expect_format_error
    "tipdb 1\ntable t\ncolumn a WIBBLE - 0 0\nrows 0\nend\n";
  (* ext type not registered: use a name nobody registers *)
  expect_format_error
    "tipdb 1\ntable t\ncolumn a EXT:never_registered - 0 0\nrows 1\nx\nend\n";
  Sys.remove tmp;
  (* cell escaping is its own inverse on adversarial strings *)
  List.iter
    (fun s ->
      Alcotest.(check string) "escape roundtrip" s
        (Persist.unescape_cell (Persist.escape_cell s)))
    [ "plain"; "tab\there"; "nl\nthere"; "back\\slash"; "\\t literal"; "" ]

(* --- New blade routines --------------------------------------------------------- *)

let check_shift_and_nth () =
  let db = Tip_blade.Blade.create_database () in
  ignore (Db.exec db "SET NOW = '1999-10-15'");
  Alcotest.check value "shift element"
    (Value.Str "{[1999-01-08, 1999-01-14]}")
    (one db
       "SELECT shift('{[1999-01-01, 1999-01-07]}'::Element, '7'::Span)::CHAR");
  Alcotest.check value "shift keeps NOW symbolic"
    (Value.Str "{[1999-01-08, NOW+7]}")
    (one db "SELECT shift('{[1999-01-01, NOW]}'::Element, '7'::Span)::CHAR");
  Alcotest.check value "shift period negative"
    (Value.Str "[1998-12-25, 1998-12-31]")
    (one db
       "SELECT shift('[1999-01-01, 1999-01-07]'::Period, '-7'::Span)::CHAR");
  Alcotest.check value "nth_period"
    (Value.Str "[1999-07-01, 1999-10-31]")
    (one db
       "SELECT nth_period('{[1999-01-01, 1999-04-30], [1999-07-01, \
        1999-10-31]}'::Element, 2)::CHAR");
  Alcotest.check value "nth_period past the end is NULL" (Value.Bool true)
    (one db
       "SELECT nth_period('{[1999-01-01, 1999-04-30]}'::Element, 5) IS NULL")

(* --- Expression edge cases --------------------------------------------------------- *)

let check_expression_edges () =
  let db = Db.create () in
  (match Db.exec db "SELECT 1 / 0" with
  | exception Tip_engine.Expr_eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "division by zero must fail");
  (match Db.exec db "SELECT 1 % 0" with
  | exception Tip_engine.Expr_eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "mod by zero must fail");
  Alcotest.check value "case without else is NULL" Value.Null
    (one db "SELECT CASE WHEN FALSE THEN 1 END");
  Alcotest.check value "not between" (Value.Bool true)
    (one db "SELECT 5 NOT BETWEEN 1 AND 4");
  Alcotest.check value "between with null bound is unknown" Value.Null
    (one db "SELECT 5 BETWEEN NULL AND 10");
  Alcotest.check value "like escape-free wildcards" (Value.Bool true)
    (one db "SELECT 'a%b' LIKE '_%_'");
  Alcotest.check value "like empty pattern" (Value.Bool false)
    (one db "SELECT 'x' LIKE ''");
  Alcotest.check value "chained casts" (Value.Str "42")
    (one db "SELECT 42::FLOAT::INT::CHAR");
  Alcotest.check value "deep precedence" (Value.Int 14)
    (one db "SELECT 2 + 3 * 4");
  Alcotest.check value "unary minus binds after cast" (Value.Int (-3))
    (one db "SELECT -'3'::INT")

(* --- Transactions and index interplay ------------------------------------------------ *)

let check_rollback_with_indexes () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE t (k INT PRIMARY KEY, v INT)");
  ignore (Db.exec db "CREATE INDEX t_v ON t (v)");
  ignore (Db.exec db "INSERT INTO t VALUES (1, 10), (2, 20)");
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "UPDATE t SET v = 99 WHERE k = 1");
  ignore (Db.exec db "DELETE FROM t WHERE k = 2");
  ignore (Db.exec db "INSERT INTO t VALUES (3, 30)");
  ignore (Db.exec db "ROLLBACK");
  (* index answers must match post-rollback reality *)
  Alcotest.check value "old key restored in index" (Value.Int 1)
    (one db "SELECT COUNT(*) FROM t WHERE v = 10");
  Alcotest.check value "tx key gone" (Value.Int 0)
    (one db "SELECT COUNT(*) FROM t WHERE v = 30");
  Alcotest.check value "deleted row back" (Value.Int 1)
    (one db "SELECT COUNT(*) FROM t WHERE v = 20");
  (* pk uniqueness still enforced after rollback *)
  (match Db.exec db "INSERT INTO t VALUES (1, 0)" with
  | exception Table.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "pk must still be unique")

(* --- Far calendar range ------------------------------------------------------------------ *)

let check_far_dates () =
  let c = Chronon.of_ymd 9999 12 31 in
  Alcotest.(check string) "year 9999 prints" "9999-12-31" (Chronon.to_string c);
  let c0 = Chronon.of_ymd 1 1 1 in
  Alcotest.(check string) "year 1 prints" "0001-01-01" (Chronon.to_string c0);
  Alcotest.(check bool) "ordering across millennia" true
    (Chronon.compare c0 c < 0);
  (* century leap rules *)
  Alcotest.(check bool) "1900-02-29 invalid" true
    (Chronon.of_string "1900-02-29" = None);
  Alcotest.(check bool) "2000-02-29 valid" true
    (Chronon.of_string "2000-02-29" <> None)

(* --- Element ops with NOW-relative periods, property-tested -------------------------------- *)

let symbolic_element_arb =
  let open QCheck in
  let gen =
    let open Gen in
    let instant =
      oneof
        [ map (fun d -> Instant.of_chronon (Chronon.of_ymd 1999 1 1 |> fun c ->
              Chronon.add c (Span.of_days d)))
            (int_range 0 365);
          map (fun d -> Instant.now_plus (Span.of_days d)) (int_range (-60) 60) ]
    in
    let period =
      let* a = instant in
      let* b = instant in
      return (Period.of_instants a b)
    in
    list_size (int_range 0 6) period
  in
  make ~print:Element.to_string (QCheck.Gen.map Element.of_periods gen)

let now1 = Chronon.of_ymd 1999 6 1
let now2 = Chronon.of_ymd 1999 9 1

let prop_symbolic_ops_consistent =
  QCheck.Test.make ~name:"NOW-relative ops = ops on pre-bound elements"
    ~count:500
    QCheck.(pair symbolic_element_arb symbolic_element_arb)
    (fun (a, b) ->
      (* Evaluating a symbolic op under now must equal grounding first. *)
      List.for_all
        (fun now ->
          let bind e = Element.of_ground_list (Element.ground ~now e) in
          Element.equal_at ~now (Element.union ~now a b)
            (Element.union ~now (bind a) (bind b))
          && Element.equal_at ~now
               (Element.intersect ~now a b)
               (Element.intersect ~now (bind a) (bind b))
          && Element.overlaps ~now a b = Element.overlaps ~now (bind a) (bind b))
        [ now1; now2 ])

let prop_roundtrip_symbolic =
  QCheck.Test.make ~name:"symbolic elements roundtrip through text" ~count:500
    symbolic_element_arb (fun e ->
      Element.equal e (Element.of_string_exn (Element.to_string e)))

(* --- Name binding ------------------------------------------------------------ *)

(* An outer reference in a subquery's JOIN ON is correlated like one in
   its WHERE, and an ordinal below 1 is a plan error, not a crash. *)
let check_binding_edges () =
  let db = Db.create () in
  List.iter
    (fun sql -> ignore (Db.exec db sql))
    [ "CREATE TABLE a (id INT, v INT)"; "CREATE TABLE b (a_id INT)";
      "INSERT INTO a VALUES (1, 10), (2, 20), (3, 20)";
      "INSERT INTO b VALUES (1), (2)" ];
  Alcotest.(check (list int)) "correlated JOIN ON" [ 2; 3 ]
    (List.map
       (fun row -> Value.to_int row.(0))
       (Db.rows_exn
          (Db.exec db
             "SELECT id FROM a WHERE EXISTS (SELECT 1 FROM b JOIN a a2 ON \
              a2.id = b.a_id AND a2.v = a.v AND a2.id > 1) ORDER BY id")));
  List.iter
    (fun sql ->
      match Db.exec db sql with
      | _ -> Alcotest.failf "%s: expected an error" sql
      | exception Tip_engine.Planner.Plan_error m ->
        Alcotest.(check string) sql "ORDER BY position 0 is not selectable" m)
    [ "SELECT id FROM a ORDER BY 0"; "SELECT id, COUNT(*) FROM a GROUP BY 0" ]

let suite =
  [ Alcotest.test_case "CREATE TABLE AS SELECT" `Quick check_ctas;
    Alcotest.test_case "persistence failure injection" `Quick
      check_persist_failures;
    Alcotest.test_case "shift / nth_period routines" `Quick check_shift_and_nth;
    Alcotest.test_case "expression edge cases" `Quick check_expression_edges;
    Alcotest.test_case "rollback restores indexes" `Quick
      check_rollback_with_indexes;
    Alcotest.test_case "far calendar range" `Quick check_far_dates;
    Alcotest.test_case "name binding edges" `Quick check_binding_edges;
    QCheck_alcotest.to_alcotest prop_symbolic_ops_consistent;
    QCheck_alcotest.to_alcotest prop_roundtrip_symbolic ]
