(* Non-correlated subqueries: EXISTS, IN (SELECT ...), scalar. *)

open Tip_storage
module Db = Tip_engine.Database

let exec_all db sqls = List.iter (fun sql -> ignore (Db.exec db sql)) sqls

let fresh_db () =
  let db = Db.create () in
  exec_all db
       [ "CREATE TABLE emp (id INT PRIMARY KEY, name CHAR(20), dept CHAR(10), salary INT)";
         "CREATE TABLE dept (code CHAR(10) PRIMARY KEY, budget INT)";
         "INSERT INTO emp VALUES (1, 'ann', 'eng', 100), (2, 'bob', 'eng', 80), \
          (3, 'cid', 'ops', 90), (4, 'dee', 'lab', 70)";
         "INSERT INTO dept VALUES ('eng', 1000), ('ops', 500)" ];
  db

let names db sql =
  List.map
    (fun row -> Value.to_display_string row.(0))
    (Db.rows_exn (Db.exec db sql))

let check_in_select () =
  let db = fresh_db () in
  Alcotest.(check (list string)) "IN (SELECT ...)" [ "ann"; "bob"; "cid" ]
    (names db
       "SELECT name FROM emp WHERE dept IN (SELECT code FROM dept) ORDER BY name");
  Alcotest.(check (list string)) "NOT IN" [ "dee" ]
    (names db
       "SELECT name FROM emp WHERE dept NOT IN (SELECT code FROM dept)");
  (* NULL in the subquery result makes NOT IN unknown everywhere. *)
  exec_all db
    [ "CREATE TABLE codes (code CHAR(10))";
      "INSERT INTO codes VALUES ('eng'), ('ops'), (NULL)" ];
  Alcotest.(check (list string)) "NOT IN with NULL candidate is empty" []
    (names db
       "SELECT name FROM emp WHERE dept NOT IN (SELECT code FROM codes)")

let check_exists () =
  let db = fresh_db () in
  Alcotest.(check (list string)) "EXISTS true branch"
    [ "ann"; "bob"; "cid"; "dee" ]
    (names db
       "SELECT name FROM emp WHERE EXISTS (SELECT 1 FROM dept WHERE budget > 900) \
        ORDER BY name");
  Alcotest.(check (list string)) "EXISTS false branch" []
    (names db
       "SELECT name FROM emp WHERE EXISTS (SELECT 1 FROM dept WHERE budget > 9000)");
  Alcotest.(check (list string)) "NOT EXISTS" [ "ann" ]
    (names db
       "SELECT name FROM emp WHERE NOT EXISTS (SELECT 1 FROM dept WHERE \
        budget > 9000) AND salary = 100")

let check_scalar () =
  let db = fresh_db () in
  Alcotest.(check (list string)) "scalar subquery in comparison" [ "ann" ]
    (names db
       "SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)");
  Alcotest.(check (list string)) "scalar arithmetic" [ "ann"; "cid" ]
    (names db
       "SELECT name FROM emp WHERE salary > (SELECT AVG(salary) FROM emp) \
        ORDER BY name");
  (* empty subquery -> NULL -> filtered out *)
  Alcotest.(check (list string)) "empty scalar is NULL" []
    (names db
       "SELECT name FROM emp WHERE salary = (SELECT salary FROM emp WHERE id = 99)");
  (* more than one row is an error *)
  (match Db.exec db "SELECT name FROM emp WHERE salary = (SELECT salary FROM emp)" with
  | exception Tip_engine.Expr_eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "multi-row scalar subquery must fail");
  (* usable in INSERT values and UPDATE assignments *)
  ignore
    (Db.exec db
       "INSERT INTO emp VALUES (9, 'eve', 'eng', (SELECT MAX(salary) FROM emp))");
  Alcotest.(check (list string)) "insert with scalar subquery" [ "100" ]
    (names db "SELECT salary FROM emp WHERE id = 9");
  ignore
    (Db.exec db
       "UPDATE emp SET salary = (SELECT MIN(budget) FROM dept) WHERE id = 9");
  Alcotest.(check (list string)) "update with scalar subquery" [ "500" ]
    (names db "SELECT salary FROM emp WHERE id = 9")

let check_correlated () =
  let db = fresh_db () in
  (* Correlated EXISTS: the classic semi-join. *)
  Alcotest.(check (list string)) "correlated EXISTS" [ "ann"; "bob"; "cid" ]
    (names db
       "SELECT name FROM emp e WHERE EXISTS (SELECT 1 FROM dept d WHERE \
        d.code = e.dept) ORDER BY name");
  Alcotest.(check (list string)) "correlated NOT EXISTS (anti-join)" [ "dee" ]
    (names db
       "SELECT name FROM emp e WHERE NOT EXISTS (SELECT 1 FROM dept d WHERE \
        d.code = e.dept)");
  (* Correlated scalar: department budget per employee. *)
  Alcotest.(check (list string)) "correlated scalar subquery"
    [ "1000"; "1000"; "500" ]
    (names db
       "SELECT (SELECT d.budget FROM dept d WHERE d.code = e.dept) FROM emp e \
        WHERE e.dept IN (SELECT code FROM dept) ORDER BY e.name");
  (* Inner scope shadows outer names, as SQL requires. *)
  Alcotest.(check (list string)) "inner scope wins" [ "ann"; "bob"; "cid"; "dee" ]
    (names db
       "SELECT name FROM emp e WHERE EXISTS (SELECT 1 FROM dept WHERE \
        budget > 0) ORDER BY name");
  (* Correlated aggregate: above-average earners per department. *)
  Alcotest.(check (list string)) "whose salary tops their dept average"
    [ "ann" ]
    (names db
       "SELECT name FROM emp e WHERE e.salary > (SELECT AVG(salary) FROM emp \
        e2 WHERE e2.dept = e.dept)");
  (* Correlated subqueries work in DML predicates too. *)
  ignore
    (Db.exec db
       "UPDATE emp SET salary = salary + 1 WHERE EXISTS (SELECT 1 FROM dept d \
        WHERE d.code = emp.dept AND d.budget > 600)");
  Alcotest.(check (list string)) "correlated UPDATE hit eng only"
    [ "101"; "81" ]
    (names db "SELECT salary FROM emp WHERE dept = 'eng' ORDER BY id");
  (* Truly unknown columns still fail loudly. *)
  (match
     Db.exec db
       "SELECT name FROM emp e WHERE EXISTS (SELECT 1 FROM dept d WHERE \
        d.code = e.nosuch)"
   with
  | exception Tip_engine.Planner.Plan_error _ -> ()
  | _ -> Alcotest.fail "unknown column must still fail")

(* In an aggregated SELECT, a subquery in the select list, HAVING or
   ORDER BY correlates against the group keys: the outer row is a
   group's. A column that is not a key still fails to bind. *)
let check_correlated_over_groups () =
  let db = fresh_db () in
  let rows sql = Plan_reference.show_rows (Db.rows_exn (Db.exec db sql)) in
  Alcotest.(check (list string)) "HAVING EXISTS on a group key"
    [ "eng|2"; "ops|1" ]
    (rows
       "SELECT dept, COUNT(*) FROM emp e GROUP BY dept HAVING EXISTS (SELECT 1         FROM dept d WHERE d.code = e.dept) ORDER BY dept");
  Alcotest.(check (list string)) "a scalar subquery in the select list"
    [ "eng|1000"; "lab|NULL"; "ops|500" ]
    (rows
       "SELECT dept, (SELECT budget FROM dept d WHERE d.code = emp.dept) FROM emp         GROUP BY dept ORDER BY dept");
  Alcotest.(check (list string)) "ORDER BY a correlated subquery"
    [ "lab"; "ops"; "eng" ]
    (names db
       "SELECT dept FROM emp GROUP BY dept ORDER BY (SELECT budget FROM dept d         WHERE d.code = dept), dept");
  List.iter
    (fun (sql, expected) ->
      match Db.exec db sql with
      | exception Tip_engine.Planner.Plan_error msg ->
        Alcotest.(check string) sql expected msg
      | _ -> Alcotest.failf "%s must fail to bind" sql)
    [ ( "SELECT dept, COUNT(*) FROM emp e GROUP BY dept HAVING EXISTS (SELECT 1 \
         FROM dept d WHERE d.budget = e.salary)",
        "column salary must appear in GROUP BY or an aggregate" );
      ( "SELECT dept, COUNT(*) FROM emp GROUP BY dept HAVING EXISTS (SELECT 1 \
         FROM dept d WHERE d.code = zz.dept)",
        "unknown table or alias zz" ) ]

let check_subquery_memoized () =
  (* The subquery must run once per statement, not once per row: make it
     expensive enough that per-row execution would be visible. *)
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE big (x INT)");
  ignore (Db.exec db "BEGIN");
  for i = 1 to 3000 do
    ignore (Db.exec db (Printf.sprintf "INSERT INTO big VALUES (%d)" i))
  done;
  ignore (Db.exec db "COMMIT");
  let t0 = Unix.gettimeofday () in
  ignore
    (Db.exec db "SELECT COUNT(*) FROM big WHERE x <= (SELECT MAX(x) FROM big)");
  let elapsed = Unix.gettimeofday () -. t0 in
  (* 3000 rows x a 3000-row subquery would take far longer than this. *)
  Alcotest.(check bool) "subquery evaluated once" true (elapsed < 0.5)

let suite =
  [ Alcotest.test_case "IN (SELECT ...)" `Quick check_in_select;
    Alcotest.test_case "EXISTS" `Quick check_exists;
    Alcotest.test_case "scalar subqueries" `Quick check_scalar;
    Alcotest.test_case "correlated subqueries" `Quick check_correlated;
    Alcotest.test_case "correlated subqueries over group keys" `Quick
      check_correlated_over_groups;
    Alcotest.test_case "subquery runs once per statement" `Quick
      check_subquery_memoized ]
