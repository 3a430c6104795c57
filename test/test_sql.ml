open Tip_sql

let parse = Parser.parse
let roundtrip sql = Pretty.statement_to_string (parse sql)

(* Print-then-parse must be a fixpoint. *)
let check_fixpoint sql =
  let once = roundtrip sql in
  let twice = Pretty.statement_to_string (parse once) in
  Alcotest.(check string) ("fixpoint: " ^ sql) once twice

(* --- The paper's exact SQL ------------------------------------------- *)

let paper_create_table =
  "CREATE TABLE Prescription (doctor CHAR(20), patient CHAR(20), \
   patientdob Chronon, drug CHAR(20), dosage INT, frequency Span, \
   valid Element)"

let paper_insert =
  "INSERT INTO Prescription VALUES ('Dr.Pepper', 'Mr.Showbiz', \
   '1962-03-03', 'Diabeta', 1, '0 08:00:00', '{[1999-10-01, NOW]}')"

let paper_tylenol =
  "SELECT patient FROM Prescription WHERE drug = 'Tylenol' AND \
   start(valid) - patientdob < '7 00:00:00'::Span * :w"

let paper_self_join =
  "SELECT p1.*, p2.*, intersect(p1.valid, p2.valid) FROM Prescription p1, \
   Prescription p2 WHERE p1.drug = 'Diabeta' AND p2.drug = 'Aspirin' AND \
   overlaps(p1.valid, p2.valid)"

let paper_coalesce =
  "SELECT patient, length(group_union(valid)) FROM Prescription GROUP BY patient"

let check_paper_queries () =
  (match parse paper_create_table with
  | Ast.Create_table { table; columns; _ } ->
    Alcotest.(check string) "table" "Prescription" table;
    Alcotest.(check (list string)) "column types"
      [ "CHAR"; "CHAR"; "Chronon"; "CHAR"; "INT"; "Span"; "Element" ]
      (List.map (fun c -> c.Ast.col_type) columns)
  | _ -> Alcotest.fail "expected CREATE TABLE");
  (match parse paper_insert with
  | Ast.Insert { source = Ast.Values [ row ]; _ } ->
    Alcotest.(check int) "seven values" 7 (List.length row)
  | _ -> Alcotest.fail "expected INSERT");
  (match parse paper_tylenol with
  | Ast.Select { where = Some (Ast.Binop (Ast.And, _, cmp)); _ } ->
    (match cmp with
    | Ast.Binop (Ast.Lt, Ast.Binop (Ast.Sub, Ast.Call ("start", _), _),
                 Ast.Binop (Ast.Mul, Ast.Cast (_, "Span"), Ast.Param "w")) -> ()
    | _ -> Alcotest.fail "Tylenol predicate shape")
  | _ -> Alcotest.fail "expected SELECT with AND");
  (match parse paper_self_join with
  | Ast.Select { items; from; _ } ->
    Alcotest.(check int) "three select items" 3 (List.length items);
    Alcotest.(check int) "two from entries" 2 (List.length from);
    (match items with
    | [ Ast.Sel_star (Some "p1"); Ast.Sel_star (Some "p2");
        Ast.Sel_expr (Ast.Call ("intersect", [ _; _ ]), None) ] -> ()
    | _ -> Alcotest.fail "self-join select items")
  | _ -> Alcotest.fail "expected SELECT");
  (match parse paper_coalesce with
  | Ast.Select { group_by = [ Ast.Column (None, "patient") ];
                 items = [ _; Ast.Sel_expr (Ast.Call ("length", [ Ast.Call ("group_union", _) ]), None) ]; _ } -> ()
  | _ -> Alcotest.fail "coalesce query shape")

(* --- Lexer ------------------------------------------------------------ *)

let check_lexer () =
  let tokens sql =
    Array.to_list (Lexer.tokenize sql)
    |> List.map (fun t -> t.Token.token)
    |> List.filter (fun t -> t <> Token.Eof)
  in
  Alcotest.(check bool) "quote escaping" true
    (tokens "'it''s'" = [ Token.String "it's" ]);
  Alcotest.(check bool) "cast symbol" true
    (tokens "x::Span" = [ Token.Ident "x"; Token.Symbol "::"; Token.Ident "Span" ]);
  Alcotest.(check bool) "param" true
    (tokens ":w" = [ Token.Param "w" ]);
  Alcotest.(check bool) "comments stripped" true
    (tokens "1 -- comment\n + /* block\n comment */ 2"
    = [ Token.Int 1; Token.Symbol "+"; Token.Int 2 ]);
  Alcotest.(check bool) "float vs dotted name" true
    (tokens "1.5 t.c"
    = [ Token.Float 1.5; Token.Ident "t"; Token.Symbol "."; Token.Ident "c" ]);
  Alcotest.(check bool) "!= normalized" true (tokens "!=" = [ Token.Symbol "<>" ]);
  Alcotest.check_raises "unterminated string"
    (Lexer.Error "lexical error at line 1, column 1: unterminated string literal")
    (fun () -> ignore (Lexer.tokenize "'oops"))

(* A number the lexer cannot convert is a lexical error at its own
   position, and a typed engine error: never an escaping [Failure]. *)
let check_bad_numbers () =
  Alcotest.check_raises "int out of range"
    (Lexer.Error
       "lexical error at line 1, column 8: malformed or out-of-range number \
        99999999999999999999")
    (fun () -> ignore (Lexer.tokenize "SELECT 99999999999999999999"));
  let db = Tip_engine.Database.create () in
  List.iter
    (fun sql ->
      match Tip_engine.Database.exec db sql with
      | exception Tip_engine.Database.Error _ -> ()
      | _ -> Alcotest.failf "%s: want a Database.Error" sql)
    [ "SELECT 99999999999999999999"; "SELECT 1e"; "SELECT 1.5e+" ]

(* --- Expression grammar ------------------------------------------------ *)

let expr_of sql =
  match parse ("SELECT " ^ sql) with
  | Ast.Select { items = [ Ast.Sel_expr (e, _) ]; _ } -> e
  | _ -> Alcotest.fail "expected single expression"

let check_precedence () =
  (match expr_of "1 + 2 * 3" with
  | Ast.Binop (Ast.Add, _, Ast.Binop (Ast.Mul, _, _)) -> ()
  | e -> Alcotest.failf "mul binds tighter: %s" (Pretty.expr_to_string e));
  (match expr_of "a OR b AND c" with
  | Ast.Binop (Ast.Or, _, Ast.Binop (Ast.And, _, _)) -> ()
  | e -> Alcotest.failf "and binds tighter: %s" (Pretty.expr_to_string e));
  (match expr_of "NOT a = b" with
  | Ast.Unop (Ast.Not, Ast.Binop (Ast.Eq, _, _)) -> ()
  | e -> Alcotest.failf "not over comparison: %s" (Pretty.expr_to_string e));
  (match expr_of "-x::Span" with
  | Ast.Unop (Ast.Neg, Ast.Cast (_, _)) -> ()
  | e -> Alcotest.failf "cast binds tighter than neg: %s" (Pretty.expr_to_string e));
  (match expr_of "1 < 2 AND 3 < 4" with
  | Ast.Binop (Ast.And, Ast.Binop (Ast.Lt, _, _), Ast.Binop (Ast.Lt, _, _)) -> ()
  | e -> Alcotest.failf "comparison under and: %s" (Pretty.expr_to_string e))

let check_predicates () =
  (match expr_of "x IS NOT NULL" with
  | Ast.Is_null { negated = true; _ } -> ()
  | _ -> Alcotest.fail "is not null");
  (match expr_of "x NOT IN (1, 2, 3)" with
  | Ast.In_list { negated = true; choices = [ _; _; _ ]; _ } -> ()
  | _ -> Alcotest.fail "not in");
  (match expr_of "x BETWEEN 1 AND 10" with
  | Ast.Between { negated = false; _ } -> ()
  | _ -> Alcotest.fail "between");
  (match expr_of "name LIKE 'Dr.%'" with
  | Ast.Like { negated = false; _ } -> ()
  | _ -> Alcotest.fail "like");
  (match expr_of "CASE WHEN a THEN 1 ELSE 2 END" with
  | Ast.Case ([ _ ], Some _) -> ()
  | _ -> Alcotest.fail "case");
  (match expr_of "CAST(x AS Chronon)" with
  | Ast.Cast (_, "Chronon") -> ()
  | _ -> Alcotest.fail "CAST sugar");
  (match expr_of "COUNT(*)" with
  | Ast.Count_star -> ()
  | _ -> Alcotest.fail "count star")

let check_joins () =
  (match parse "SELECT * FROM a JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y" with
  | Ast.Select { from = [ Ast.Join { kind = Ast.Left_outer; left = Ast.Join { kind = Ast.Inner; _ }; _ } ]; _ } -> ()
  | _ -> Alcotest.fail "join nesting");
  (match parse "SELECT * FROM (SELECT x FROM t) sub WHERE sub.x > 0" with
  | Ast.Select { from = [ Ast.Derived { alias = "sub"; _ } ]; _ } -> ()
  | _ -> Alcotest.fail "derived table")

let check_statements () =
  (match parse "SET NOW = '1999-09-01'" with
  | Ast.Set_now (Some (Ast.Lit (Ast.L_string _))) -> ()
  | _ -> Alcotest.fail "set now");
  (match parse "SET NOW DEFAULT" with
  | Ast.Set_now None -> ()
  | _ -> Alcotest.fail "set now default");
  (match parse "EXPLAIN SELECT 1" with
  | Ast.Explain { analyze = false; target = Ast.Select _ } -> ()
  | _ -> Alcotest.fail "explain");
  (match parse "EXPLAIN ANALYZE SELECT 1" with
  | Ast.Explain { analyze = true; target = Ast.Select _ } -> ()
  | _ -> Alcotest.fail "explain analyze");
  (match parse "STATS" with
  | Ast.Stats None -> ()
  | _ -> Alcotest.fail "stats");
  (match parse "SHOW METRICS" with
  | Ast.Stats None -> ()
  | _ -> Alcotest.fail "show metrics");
  (match parse "STATS LIKE 'wal%'" with
  | Ast.Stats (Some "wal%") -> ()
  | _ -> Alcotest.fail "stats like");
  (match parse "SHOW METRICS LIKE 'engine%'" with
  | Ast.Stats (Some "engine%") -> ()
  | _ -> Alcotest.fail "show metrics like");
  (match parse "CREATE UNIQUE INDEX i ON t (c)" with
  | Ast.Create_index { unique = true; _ } -> ()
  | _ -> Alcotest.fail "unique index");
  (match parse "INSERT INTO t (a, b) SELECT a, b FROM s" with
  | Ast.Insert { source = Ast.Query _; columns = Some [ "a"; "b" ]; _ } -> ()
  | _ -> Alcotest.fail "insert-select");
  (match List.map fst (Parser.parse_script "BEGIN; COMMIT; ROLLBACK;") with
  | [ Ast.Begin_tx; Ast.Commit_tx; Ast.Rollback_tx ] -> ()
  | _ -> Alcotest.fail "script")

let check_errors () =
  let expect_error sql =
    match parse sql with
    | exception Parser.Error _ -> ()
    | _ -> Alcotest.failf "expected parse error: %s" sql
  in
  expect_error "SELECT";
  expect_error "SELECT * FROM";
  expect_error "SELECT * FROM t WHERE";
  expect_error "INSERT INTO t VALUES (1,)";
  expect_error "CREATE TABLE t ()";
  expect_error "SELECT 1 2";
  expect_error "SELECT * FROM t ORDER";
  expect_error "SET TIMEZONE = 3"

let check_fixpoints () =
  List.iter check_fixpoint
    [ paper_create_table; paper_insert; paper_tylenol; paper_self_join;
      paper_coalesce;
      "SELECT DISTINCT a, b AS c FROM t WHERE x IS NULL ORDER BY a DESC, b LIMIT 3 OFFSET 2";
      "SELECT COUNT(*), SUM(x) FROM t GROUP BY g HAVING COUNT(*) > 1";
      "UPDATE t SET a = a + 1, b = 'x''y' WHERE c BETWEEN 1 AND 2";
      "SELECT CASE WHEN a THEN 1 WHEN b THEN 2 ELSE 3 END FROM t";
      "SELECT * FROM a JOIN b ON a.x = b.x, c d WHERE NOT (a.y = d.y)";
      "SELECT x FROM a UNION ALL SELECT y FROM b UNION SELECT z FROM c";
      "SELECT * FROM t AS OF '1999-01-01' x WHERE x.a = 1";
      "CREATE TABLE t (a INT PRIMARY KEY, b Element) WITH HISTORY";
      "COPY t TO 'out.csv'";
      "COPY t FROM 'in.csv'";
      "SAVEPOINT sp1";
      "ROLLBACK TO SAVEPOINT sp1";
      "RELEASE SAVEPOINT sp1";
      "SELECT COUNT(DISTINCT x), f(DISTINCT y) FROM t";
      "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.x = t.x)";
      "SELECT a FROM t WHERE x IN (SELECT y FROM u) AND b = (SELECT MAX(z) FROM v)" ]

let suite =
  [ Alcotest.test_case "the paper's exact queries parse" `Quick check_paper_queries;
    Alcotest.test_case "lexer" `Quick check_lexer;
    Alcotest.test_case "malformed numbers are lexical errors" `Quick
      check_bad_numbers;
    Alcotest.test_case "operator precedence" `Quick check_precedence;
    Alcotest.test_case "predicates" `Quick check_predicates;
    Alcotest.test_case "joins and derived tables" `Quick check_joins;
    Alcotest.test_case "statement forms" `Quick check_statements;
    Alcotest.test_case "parse errors" `Quick check_errors;
    Alcotest.test_case "print/parse fixpoints" `Quick check_fixpoints ]
