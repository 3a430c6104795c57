(* Transaction-time (WITH HISTORY) tables and AS OF queries. *)

open Tip_storage
module Db = Tip_engine.Database

let value = Alcotest.testable Value.pp Value.equal

let check_row_list msg expected actual =
  Alcotest.(check (list (list value))) msg expected (List.map Array.to_list actual)

let str s = Value.Str s
let int n = Value.Int n

let at db date = ignore (Db.exec db (Printf.sprintf "SET NOW = '%s'" date))

(* A staffing table that changes over 1999; every change is stamped by
   moving NOW first, so the history is deterministic. *)
let staffing_db () =
  let db = Tip_blade.Blade.create_database () in
  at db "1999-01-04";
  ignore (Db.exec db "CREATE TABLE staff (name CHAR(20), role CHAR(20)) WITH HISTORY");
  ignore (Db.exec db "INSERT INTO staff VALUES ('ada', 'engineer')");
  at db "1999-03-01";
  ignore (Db.exec db "INSERT INTO staff VALUES ('grace', 'admiral')");
  at db "1999-06-15";
  ignore (Db.exec db "UPDATE staff SET role = 'manager' WHERE name = 'ada'");
  at db "1999-09-30";
  ignore (Db.exec db "DELETE FROM staff WHERE name = 'grace'");
  at db "1999-12-01";
  db

let check_shadow_table_created () =
  let db = Tip_blade.Blade.create_database () in
  ignore (Db.exec db "CREATE TABLE t (a INT PRIMARY KEY) WITH HISTORY");
  (match Db.exec db "DESCRIBE t_history" with
  | Db.Rows { rows; _ } ->
    Alcotest.(check int) "shadow has a+_tt" 2 (List.length rows);
    Alcotest.(check bool) "tt column typed by the blade" true
      (List.exists
         (fun r ->
           Value.to_display_string r.(0) = "_tt"
           && Value.to_display_string r.(1) = "Element")
         rows);
    (* uniqueness dropped on the shadow so values can recur over time *)
    Alcotest.(check bool) "no pk on shadow" true
      (List.for_all (fun r -> Value.to_display_string r.(3) = "f") rows)
  | _ -> Alcotest.fail "describe");
  (* without the blade, WITH HISTORY must fail cleanly *)
  let bare = Db.create () in
  (match Db.exec bare "CREATE TABLE t (a INT) WITH HISTORY" with
  | exception Db.Error _ -> ()
  | _ -> Alcotest.fail "WITH HISTORY without blade must fail");
  Alcotest.(check bool) "failed create leaves no table" true
    (Catalog.find_table (Db.catalog bare) "t" = None)

let check_as_of () =
  let db = staffing_db () in
  let q date =
    Db.rows_exn
      (Db.exec db
         (Printf.sprintf
            "SELECT name, role FROM staff AS OF '%s' ORDER BY name" date))
  in
  check_row_list "before anything existed" [] (q "1998-12-31");
  check_row_list "after ada joined" [ [ str "ada"; str "engineer" ] ]
    (q "1999-02-01");
  check_row_list "both, before the promotion"
    [ [ str "ada"; str "engineer" ]; [ str "grace"; str "admiral" ] ]
    (q "1999-04-01");
  check_row_list "after the promotion"
    [ [ str "ada"; str "manager" ]; [ str "grace"; str "admiral" ] ]
    (q "1999-08-01");
  check_row_list "after grace left" [ [ str "ada"; str "manager" ] ]
    (q "1999-11-01");
  (* the current table agrees with AS OF now *)
  check_row_list "current state"
    [ [ str "ada"; str "manager" ] ]
    (Db.rows_exn (Db.exec db "SELECT name, role FROM staff ORDER BY name"))

let check_as_of_in_joins () =
  let db = staffing_db () in
  (* time-travel join: compare the org chart at two instants *)
  check_row_list "who changed role between April and August"
    [ [ str "ada"; str "engineer"; str "manager" ] ]
    (Db.rows_exn
       (Db.exec db
          "SELECT a.name, a.role, b.role FROM staff AS OF '1999-04-01' a, \
           staff AS OF '1999-08-01' b WHERE a.name = b.name AND \
           a.role <> b.role"))

let check_history_is_queryable () =
  let db = staffing_db () in
  (* The shadow table is plain SQL: audit queries just work. *)
  check_row_list "ada's full history"
    [ [ str "engineer"; str "{[1999-01-04, 1999-06-15]}" ];
      [ str "manager"; str "{[1999-06-15, NOW]}" ] ]
    (Db.rows_exn
       (Db.exec db
          "SELECT role, _tt::CHAR FROM staff_history WHERE name = 'ada' \
           ORDER BY start(_tt)"));
  (* total employment time via the blade's coalescing, off the audit log *)
  check_row_list "days employed from history"
    [ [ str "ada"; int 331 ]; [ str "grace"; int 213 ] ]
    (Db.rows_exn
       (Db.exec db
          "SELECT name, length(group_union(_tt))::INT / 86400 FROM \
           staff_history GROUP BY name ORDER BY name"))

let check_as_of_errors () =
  let db = staffing_db () in
  (match Db.exec db "SELECT * FROM staff_history AS OF '1999-01-01'" with
  | exception Tip_engine.Planner.Plan_error _ -> ()
  | _ -> Alcotest.fail "AS OF on a non-history table must fail");
  (match Db.exec db "SELECT * FROM staff AS OF 'not a date'" with
  | exception Tip_engine.Planner.Plan_error _ -> ()
  | _ -> Alcotest.fail "bad AS OF operand must fail");
  let bare = Db.create () in
  ignore (Db.exec bare "CREATE TABLE t (a INT)");
  (match Db.exec bare "SELECT * FROM t AS OF '1999-01-01'" with
  | exception Tip_engine.Planner.Plan_error _ -> ()
  | _ -> Alcotest.fail "AS OF without blade must fail")

let check_history_rollback () =
  let db = staffing_db () in
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "INSERT INTO staff VALUES ('eve', 'intern')");
  ignore (Db.exec db "DELETE FROM staff WHERE name = 'ada'");
  ignore (Db.exec db "ROLLBACK");
  (* both the table and its history are restored *)
  check_row_list "table restored"
    [ [ str "ada" ] ]
    (Db.rows_exn (Db.exec db "SELECT name FROM staff ORDER BY name"));
  check_row_list "history restored (no eve, ada still open)"
    [ [ int 0 ] ]
    (Db.rows_exn
       (Db.exec db "SELECT COUNT(*) FROM staff_history WHERE name = 'eve'"));
  check_row_list "ada's open row survived rollback"
    [ [ int 1 ] ]
    (Db.rows_exn
       (Db.exec db
          "SELECT COUNT(*) FROM staff_history WHERE name = 'ada' AND \
           finish(_tt) = now()"))

let check_history_snapshot_roundtrip () =
  let db = staffing_db () in
  let path = Filename.temp_file "tip_history" ".snapshot" in
  Persist.save (Db.catalog db) path;
  let catalog = Persist.load path in
  Sys.remove path;
  let db2 = Db.create ~catalog () in
  Tip_blade.Blade.install db2;
  at db2 "2000-06-01";
  (* the structural link survives: AS OF works and maintenance resumes *)
  check_row_list "as of works after reload"
    [ [ str "ada"; str "manager" ] ]
    (Db.rows_exn
       (Db.exec db2 "SELECT name, role FROM staff AS OF '1999-11-01'"));
  ignore (Db.exec db2 "DELETE FROM staff WHERE name = 'ada'");
  check_row_list "maintenance resumed: ada's row closed"
    [ [ int 0 ] ]
    (Db.rows_exn
       (Db.exec db2
          "SELECT COUNT(*) FROM staff_history WHERE finish(_tt) > now()"));
  check_row_list "as of before the delete still sees ada"
    [ [ str "ada" ] ]
    (Db.rows_exn
       (Db.exec db2 "SELECT name FROM staff AS OF '2000-01-01'"))

(* A history shadow is linked to its table by name, so a create that
   would adopt an existing [<t>_history] is refused before anything is
   created: WITH HISTORY beside a table already holding the name, and a
   plain table re-created over the audit log its dropped namesake left. *)
let check_history_name_clashes () =
  let refused db sql ~names =
    match Db.exec db sql with
    | exception Db.Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%S names %s" msg names)
        true
        (try
           ignore (Str.search_forward (Str.regexp_string names) msg 0);
           true
         with Not_found -> false)
    | r -> Alcotest.failf "%s was accepted: %s" sql (Db.render_result r)
  in
  let table_names db =
    List.map
      (fun r -> Value.to_display_string r.(0))
      (Db.rows_exn (Db.exec db "SHOW TABLES"))
  in
  Test_durability.with_dir (fun dir ->
      Tip_blade.Values.register_types ();
      let db, _ = Db.open_durable ~dir () in
      Tip_blade.Blade.install db;
      ignore (Db.exec db "CREATE TABLE b_history (x INT)");
      refused db "CREATE TABLE b (id INT PRIMARY KEY) WITH HISTORY"
        ~names:"b_history";
      Alcotest.(check bool) "b was not created" false
        (List.mem "b" (table_names db));
      Db.close_durable db;
      let db, _ = Db.open_durable ~dir () in
      Tip_blade.Blade.install db;
      Alcotest.(check (list string)) "nor logged" [ "b_history" ]
        (table_names db);
      Db.close_durable db);
  let db = Tip_blade.Blade.create_database () in
  at db "2000-01-01";
  ignore (Db.exec db "CREATE TABLE acct (id INT PRIMARY KEY, bal INT) WITH HISTORY");
  ignore (Db.exec db "INSERT INTO acct VALUES (1, 100)");
  ignore (Db.exec db "DROP TABLE acct");
  at db "2000-02-01";
  refused db "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)"
    ~names:"acct_history";
  refused db "CREATE TABLE acct AS SELECT id, bal FROM acct_history"
    ~names:"acct_history";
  Alcotest.(check bool) "acct was not created" false
    (List.mem "acct" (table_names db));
  (* the audit log stays queryable, and once dropped the name is free *)
  check_row_list "AS OF still reads the audit log"
    [ [ int 1; int 100 ] ]
    (Db.rows_exn (Db.exec db "SELECT id, bal FROM acct AS OF '2000-01-15'"));
  ignore (Db.exec db "DROP TABLE acct_history");
  ignore (Db.exec db "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)");
  ignore (Db.exec db "INSERT INTO acct VALUES (2, 200)");
  Alcotest.(check bool) "the new acct has no history" true
    (Catalog.find_table (Db.catalog db) "acct_history" = None)

let suite =
  [ Alcotest.test_case "shadow table creation" `Quick check_shadow_table_created;
    Alcotest.test_case "AS OF time travel" `Quick check_as_of;
    Alcotest.test_case "AS OF inside joins" `Quick check_as_of_in_joins;
    Alcotest.test_case "history is plain SQL" `Quick check_history_is_queryable;
    Alcotest.test_case "AS OF error paths" `Quick check_as_of_errors;
    Alcotest.test_case "rollback restores history" `Quick check_history_rollback;
    Alcotest.test_case "history survives snapshots" `Quick
      check_history_snapshot_roundtrip;
    Alcotest.test_case "creates never adopt an existing _history" `Quick
      check_history_name_clashes ]
