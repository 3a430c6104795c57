(* COPY (CSV import/export) and transaction savepoints. *)

open Tip_storage
module Db = Tip_engine.Database

let value = Alcotest.testable Value.pp Value.equal

let one db sql =
  match Db.rows_exn (Db.exec db sql) with
  | [ [| v |] ] -> v
  | _ -> Alcotest.failf "expected one value: %s" sql

let check_copy_roundtrip () =
  let db = Tip_workload.Medical.demo_database () in
  let path = Filename.temp_file "tip_copy" ".csv" in
  (match Db.exec db (Printf.sprintf "COPY Prescription TO '%s'" path) with
  | Db.Message m ->
    Alcotest.(check bool) "export message" true
      (String.length m > 0 && String.sub m 0 4 = "COPY")
  | _ -> Alcotest.fail "expected message");
  (* re-import into a fresh table with the same shape *)
  ignore
    (Db.exec db
       "CREATE TABLE prescription2 (doctor CHAR(20), patient CHAR(20), \
        patientdob Chronon, drug CHAR(20), dosage INT, frequency Span, \
        valid Element)");
  (* the header says 'prescription'... the import checks column names,
     not the table name, so this works *)
  (match Db.exec db (Printf.sprintf "COPY prescription2 FROM '%s'" path) with
  | Db.Affected 5 -> ()
  | r -> Alcotest.failf "expected 5 rows, got %s" (Db.render_result r));
  Sys.remove path;
  (* NOW survives the CSV round trip symbolically *)
  Alcotest.check value "symbolic NOW round-trips through CSV"
    (Value.Str "{[1999-10-01, NOW]}")
    (one db "SELECT valid::CHAR FROM prescription2 WHERE drug = 'Diabeta'");
  Alcotest.check value "row equality across the round trip" (Value.Int 5)
    (one db
       "SELECT COUNT(*) FROM Prescription p, prescription2 q WHERE \
        p.doctor = q.doctor AND p.patient = q.patient AND p.drug = q.drug \
        AND p.valid = q.valid")

let check_csv_quoting () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE q (a CHAR(40), b INT)");
  ignore
    (Db.exec db
       "INSERT INTO q VALUES ('with,comma', 1), ('with \"quotes\"', 2), \
        (NULL, 3), ('', 4)");
  let path = Filename.temp_file "tip_quote" ".csv" in
  ignore (Db.exec db (Printf.sprintf "COPY q TO '%s'" path));
  ignore (Db.exec db "CREATE TABLE q2 (a CHAR(40), b INT)");
  (match Db.exec db (Printf.sprintf "COPY q2 FROM '%s'" path) with
  | Db.Affected 4 -> ()
  | _ -> Alcotest.fail "expected 4 rows");
  Sys.remove path;
  Alcotest.check value "comma survived" (Value.Str "with,comma")
    (one db "SELECT a FROM q2 WHERE b = 1");
  Alcotest.check value "quotes survived" (Value.Str "with \"quotes\"")
    (one db "SELECT a FROM q2 WHERE b = 2");
  Alcotest.check value "NULL stayed NULL" (Value.Bool true)
    (one db "SELECT a IS NULL FROM q2 WHERE b = 3");
  Alcotest.check value "empty string stayed a string" (Value.Bool false)
    (one db "SELECT a IS NULL FROM q2 WHERE b = 4")

let check_copy_errors () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE t (a INT, b INT)");
  (match Db.exec db "COPY t FROM '/nonexistent/file.csv'" with
  | exception Db.Error _ -> ()
  | _ -> Alcotest.fail "missing file must fail");
  (* wrong header *)
  let path = Filename.temp_file "tip_badcsv" ".csv" in
  let oc = open_out path in
  output_string oc "x,y\n1,2\n";
  close_out oc;
  (match Db.exec db (Printf.sprintf "COPY t FROM '%s'" path) with
  | exception Db.Error msg ->
    Alcotest.(check bool) "mentions header" true
      (try
         ignore (Str.search_forward (Str.regexp_string "header") msg 0);
         true
       with Not_found -> false)
  | _ -> Alcotest.fail "bad header must fail");
  Sys.remove path

let check_savepoints () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE t (a INT)");
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "INSERT INTO t VALUES (1)");
  ignore (Db.exec db "SAVEPOINT s1");
  ignore (Db.exec db "INSERT INTO t VALUES (2)");
  ignore (Db.exec db "SAVEPOINT s2");
  ignore (Db.exec db "INSERT INTO t VALUES (3)");
  Alcotest.check value "all three" (Value.Int 3) (one db "SELECT COUNT(*) FROM t");
  ignore (Db.exec db "ROLLBACK TO SAVEPOINT s2");
  Alcotest.check value "third undone" (Value.Int 2)
    (one db "SELECT COUNT(*) FROM t");
  (* the savepoint survives and can be rolled back to again *)
  ignore (Db.exec db "INSERT INTO t VALUES (4)");
  ignore (Db.exec db "ROLLBACK TO s2");
  Alcotest.check value "fourth undone too" (Value.Int 2)
    (one db "SELECT COUNT(*) FROM t");
  ignore (Db.exec db "ROLLBACK TO s1");
  Alcotest.check value "back to one" (Value.Int 1)
    (one db "SELECT COUNT(*) FROM t");
  ignore (Db.exec db "COMMIT");
  Alcotest.check value "committed state" (Value.Int 1)
    (one db "SELECT COUNT(*) FROM t");
  (* error paths *)
  (match Db.exec db "SAVEPOINT nope" with
  | exception Db.Error _ -> ()
  | _ -> Alcotest.fail "savepoint outside tx must fail");
  ignore (Db.exec db "BEGIN");
  (match Db.exec db "ROLLBACK TO missing" with
  | exception Db.Error _ -> ()
  | _ -> Alcotest.fail "unknown savepoint must fail");
  ignore (Db.exec db "SAVEPOINT s3");
  ignore (Db.exec db "RELEASE SAVEPOINT s3");
  (match Db.exec db "ROLLBACK TO s3" with
  | exception Db.Error _ -> ()
  | _ -> Alcotest.fail "released savepoint must be gone");
  ignore (Db.exec db "ROLLBACK")

let check_full_rollback_through_savepoints () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE t (a INT)");
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "INSERT INTO t VALUES (1)");
  ignore (Db.exec db "SAVEPOINT s");
  ignore (Db.exec db "INSERT INTO t VALUES (2)");
  ignore (Db.exec db "ROLLBACK");
  Alcotest.check value "plain rollback crosses markers" (Value.Int 0)
    (one db "SELECT COUNT(*) FROM t")

(* A failed ROLLBACK TO leaves the transaction exactly as it was: nothing
   undone, so a later ROLLBACK still undoes every row once. *)
let check_unknown_savepoint_undoes_nothing () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE t (a INT PRIMARY KEY)");
  ignore (Db.exec db "INSERT INTO t VALUES (0)");
  ignore (Db.exec db "BEGIN");
  ignore (Db.exec db "INSERT INTO t VALUES (1)");
  (match Db.exec db "ROLLBACK TO missing" with
  | exception Db.Error _ -> ()
  | _ -> Alcotest.fail "unknown savepoint must fail");
  Alcotest.check value "the insert stands" (Value.Int 2)
    (one db "SELECT COUNT(*) FROM t");
  ignore (Db.exec db "ROLLBACK");
  Alcotest.check value "ROLLBACK undoes it once" (Value.Int 1)
    (one db "SELECT COUNT(*) FROM t")

let suite =
  [ Alcotest.test_case "COPY round trip (incl. NOW)" `Quick check_copy_roundtrip;
    Alcotest.test_case "CSV quoting corners" `Quick check_csv_quoting;
    Alcotest.test_case "COPY error paths" `Quick check_copy_errors;
    Alcotest.test_case "savepoints" `Quick check_savepoints;
    Alcotest.test_case "rollback crosses savepoints" `Quick
      check_full_rollback_through_savepoints;
    Alcotest.test_case "an unknown savepoint undoes nothing" `Quick
      check_unknown_savepoint_undoes_nothing ]
