(* UPDATE, DELETE and SELECT take their candidate rows from the access
   path the chooser picks (B+tree range or interval probe) and recheck
   the WHERE. Differential: random statements run against two copies of
   the same table, one with B+trees on [k], [id], [f], [d], [ch] and [c]
   and an interval index on [valid], one with no index, must give the
   same answers and counts and leave the same rows under the same rids,
   flat and partitioned. *)

open Tip_storage
module Db = Tip_engine.Database

let columns =
  "id INT, k INT, dept CHAR(8), valid Element, f FLOAT, d DATE, ch Chronon, \
   c CHAR(4)"

let flat_ddl = Printf.sprintf "CREATE TABLE t (%s)" columns

let part_ddl =
  Printf.sprintf
    "CREATE TABLE t (%s) PARTITION BY RANGE (valid) (PARTITION y2020 FOR \
     VALUES FROM '2020-01-01' TO '2021-01-01', PARTITION y2021 FOR VALUES \
     FROM '2021-01-01' TO '2022-01-01', PARTITION pdefault DEFAULT)"
    columns

let indexes =
  [ "CREATE INDEX tk ON t (k)"; "CREATE INDEX tid ON t (id)";
    "CREATE INDEX tv ON t (valid) USING INTERVAL"; "CREATE INDEX tf ON t (f)";
    "CREATE INDEX td ON t (d)"; "CREATE INDEX tch ON t (ch)";
    "CREATE INDEX tc ON t (c)" ]

(* 60 rows: duplicate and NULL keys, one- and two-period elements in
   2020 and 2021, NOW-relative and NULL timestamps, chronons with a time
   of day (one far future), and an over-width CHAR(4) string that is
   stored truncated. *)
let seed_rows =
  List.init 60 (fun i ->
      let id = i + 1 in
      let k = if id mod 11 = 0 then "NULL" else string_of_int (id mod 7) in
      let dept = [| "'a'"; "'b'"; "'c'" |].(id mod 3) in
      let m = 1 + (id mod 12) in
      let valid =
        match id mod 6 with
        | 0 -> "NULL"
        | 1 -> "'{[2021-03-01, NOW]}'"
        | 2 ->
          Printf.sprintf "'{[2020-%02d-01, 2020-%02d-20], [2021-%02d-05, 2021-%02d-09]}'"
            m m m m
        | 3 -> Printf.sprintf "'{[2021-%02d-02, 2021-%02d-25]}'" m m
        | 4 -> "'{[NOW-400, NOW-10]}'"
        | _ -> Printf.sprintf "'{[2020-%02d-10, 2020-%02d-12]}'" m m
      in
      let f =
        if id mod 13 = 0 then "NULL"
        else Printf.sprintf "%g" (float_of_int (id mod 5) *. 0.5)
      in
      let d =
        if id mod 17 = 0 then "NULL"
        else Printf.sprintf "'2020-%02d-%02d'" m (1 + (id mod 28))
      in
      let ch =
        if id mod 9 = 0 then "'2099-01-01'"
        else Printf.sprintf "'2020-%02d-%02d %02d:00:00'" m (1 + (id mod 28)) (id mod 24)
      in
      let c = [| "'abcd'"; "'abc'"; "'abcdz'"; "'b'"; "'bbbb'"; "NULL" |].(id mod 6) in
      Printf.sprintf "INSERT INTO t VALUES (%d, %s, %s, %s, %s, %s, %s, %s)" id k dept
        valid f d ch c)

let make_db ~partitioned ~indexed =
  let db = Tip_blade.Blade.create_database () in
  ignore (Db.exec db (if partitioned then part_ddl else flat_ddl));
  if indexed then List.iter (fun sql -> ignore (Db.exec db sql)) indexes;
  List.iter (fun sql -> ignore (Db.exec db sql)) seed_rows;
  db

(* --- Statement generator --------------------------------------------------- *)

let atom_gen =
  let open QCheck.Gen in
  let small = int_range (-1) 8 in
  let month = int_range 1 12 in
  let period =
    map2
      (fun y m -> Printf.sprintf "'{[%d-%02d-01, %d-%02d-15]}'::Element" y m y m)
      (int_range 2020 2021) month
  in
  let half =
    map (fun n -> Printf.sprintf "%g" (float_of_int n *. 0.5)) (int_range (-1) 5)
  in
  let chars = oneofl [ "'abcd'"; "'abc'"; "'b'"; "'abcde'"; "'abcdz'"; "'bbbbb'" ] in
  oneof
    [ map (Printf.sprintf "k = %d") small;
      map (Printf.sprintf "t.k = %d") small;
      map (Printf.sprintf "k < %d") small;
      map (Printf.sprintf "k >= %d") small;
      map (Printf.sprintf "%d > k") small;
      map2 (Printf.sprintf "k BETWEEN %d AND %d") small small;
      return "k IS NULL";
      map (Printf.sprintf "k + 0 = %d") small;
      map (Printf.sprintf "id = %d") (int_range 0 70);
      map (Printf.sprintf "id <= %d") (int_range 0 70);
      map (Printf.sprintf "dept = '%s'") (oneofl [ "a"; "b"; "z" ]);
      map (Printf.sprintf "overlaps(valid, %s)") period;
      map (Printf.sprintf "overlaps(%s, valid)") period;
      map (Printf.sprintf "contains(valid, %s)") period;
      return "overlaps(valid, '{[NOW-30, NOW]}'::Element)";
      return "overlaps(valid, '{[NOW-400, NOW-300]}')";
      (* FLOAT: float and int constants, flipped, BETWEEN *)
      map (Printf.sprintf "f < %s") half;
      map (Printf.sprintf "f = %d") (int_range 0 2);
      map (Printf.sprintf "%s >= f") half;
      map2 (Printf.sprintf "f BETWEEN %s AND %s") half half;
      (* DATE: date strings, time-of-day strings, a chronon cast *)
      map2 (Printf.sprintf "d = '2020-%02d-%02d'") month (int_range 1 28);
      map (Printf.sprintf "d < '2020-%02d-10 12:00:00'") month;
      map (Printf.sprintf "'2020-%02d-01' <= d") month;
      map2
        (Printf.sprintf "d BETWEEN '2020-%02d-01' AND '2020-%02d-15 18:00:00'")
        month month;
      map (Printf.sprintf "d > '2020-%02d-05 06:00:00'::Chronon") month;
      map (Printf.sprintf "d < '2020-%02d-05 06:00:00'::Chronon") month;
      (* Chronon: strings, casts, flipped, BETWEEN, NOW-relative *)
      map (Printf.sprintf "ch < '2020-%02d-15'") month;
      map (Printf.sprintf "'2020-%02d-01 12:00:00' < ch") month;
      map (Printf.sprintf "ch >= '2020-%02d-01'::Chronon") month;
      map (Printf.sprintf "ch = '2020-%02d-02 02:00:00'::Chronon") month;
      map (Printf.sprintf "ch < '2020-%02d-01'::DATE") month;
      map2
        (Printf.sprintf "ch BETWEEN '2020-%02d-01' AND '2020-%02d-01 12:00:00'")
        month month;
      oneofl
        [ "ch < 'NOW'"; "ch <= 'NOW-30'"; "'NOW' > ch";
          "ch BETWEEN '2020-06-01' AND 'NOW'" ];
      (* CHAR(4): over-width strings, flipped, BETWEEN *)
      map (Printf.sprintf "c = %s") chars;
      map (Printf.sprintf "c < %s") chars;
      map (Printf.sprintf "%s >= c") chars;
      map2 (Printf.sprintf "c BETWEEN %s AND %s") chars chars;
      map (Printf.sprintf "id IN (SELECT id FROM t WHERE k = %d)") small ]

let where_gen =
  let open QCheck.Gen in
  frequency
    [ (1, return "");
      (5, map (fun atoms -> " WHERE " ^ String.concat " AND " atoms)
            (list_size (int_range 1 3) atom_gen));
      (2, map2 (Printf.sprintf " WHERE %s OR %s") atom_gen atom_gen);
      (1, map (Printf.sprintf " WHERE NOT (%s)") atom_gen) ]

let stmt_gen =
  let open QCheck.Gen in
  let set =
    oneof
      [ map (Printf.sprintf "k = k + %d") (int_range (-2) 3);
        map (Printf.sprintf "k = %d, dept = 'z'") (int_range 0 8);
        map2
          (fun y m ->
            Printf.sprintf "valid = '{[%d-%02d-01, %d-%02d-10]}'" y m y m)
          (int_range 2019 2022) (int_range 1 12);
        map (Printf.sprintf "id = id + %d") (int_range 1 5);
        return "f = f + 0.5";
        map
          (fun m ->
            Printf.sprintf "d = '2020-%02d-05', ch = '2020-%02d-05 05:00:00'" m m)
          (int_range 1 12);
        return "c = 'zzzzz'" ]
  in
  frequency
    [ (4, map2 (Printf.sprintf "UPDATE t SET %s%s") set where_gen);
      (2, map (Printf.sprintf "DELETE FROM t%s") where_gen);
      (3, map (Printf.sprintf "SELECT * FROM t%s") where_gen);
      (3, map (Printf.sprintf "SELECT COUNT(*) FROM t%s") where_gen);
      (1,
       map2
         (fun id k ->
           Printf.sprintf
             "INSERT INTO t VALUES (%d, %d, 'n', '{[2020-05-01, 2021-05-01]}', \
              2.5, '2020-05-05', '2020-05-05 05:00:00', 'nnnnn')"
             id k)
         (int_range 61 80) (int_range 0 8)) ]

(* --- Comparison ---------------------------------------------------------------- *)

(* Rows compare as a sorted list: an index scan reads in key order. *)
let outcome db sql =
  match Db.exec db sql with
  | Db.Affected n -> Printf.sprintf "affected %d" n
  | Db.Rows { rows; _ } ->
    String.concat "\n" (List.sort compare (List.map Persist.serialize_row rows))
  | r -> Db.render_result r
  | exception Db.Error m -> "error: " ^ m

(* Every stored row with its rid, table by table. *)
let contents ~partitioned db =
  let tables =
    if partitioned then [ "t__y2020"; "t__y2021"; "t__pdefault" ] else [ "t" ]
  in
  List.concat_map
    (fun name ->
      let table = Catalog.table_exn (Db.catalog db) name in
      Table.fold
        (fun acc row -> Persist.serialize_row row :: acc)
        [] table
      |> List.rev
      |> List.combine (Table.rids table)
      |> List.map (fun (rid, row) -> Printf.sprintf "%s %d %s" name rid row))
    tables

let prop_indexed_equals_plain ~partitioned =
  let name =
    Printf.sprintf "indexed DML = unindexed DML (%s)"
      (if partitioned then "partitioned" else "flat")
  in
  QCheck.Test.make ~name ~count:150
    (QCheck.make
       ~print:(String.concat ";\n")
       QCheck.Gen.(list_size (int_range 1 8) stmt_gen))
    (fun stmts ->
      let indexed = make_db ~partitioned ~indexed:true in
      let plain = make_db ~partitioned ~indexed:false in
      List.for_all
        (fun sql ->
          let a = outcome indexed sql and b = outcome plain sql in
          if not (String.equal a b) then
            QCheck.Test.fail_reportf "%s: indexed %s, unindexed %s" sql a b;
          let ca = contents ~partitioned indexed
          and cb = contents ~partitioned plain in
          if ca <> cb then
            QCheck.Test.fail_reportf "%s: tables differ:\n%s\n---\n%s" sql
              (String.concat "\n" ca) (String.concat "\n" cb);
          true)
        stmts)

(* The indexed path really skips the full scan. *)
let check_no_full_scan () =
  let db = make_db ~partitioned:false ~indexed:true in
  let table = Catalog.table_exn (Db.catalog db) "t" in
  let scans sql =
    let before = Table.scan_count table in
    ignore (Db.exec db sql);
    Table.scan_count table - before
  in
  Alcotest.(check int) "UPDATE on the B+tree key" 0
    (scans "UPDATE t SET k = k + 1 WHERE k = 3");
  Alcotest.(check int) "UPDATE on id" 0
    (scans "UPDATE t SET dept = 'q' WHERE id = 7");
  Alcotest.(check int) "DELETE by interval probe" 0
    (scans
       "DELETE FROM t WHERE overlaps(valid, '{[2020-03-01, 2020-03-05]}'::Element)");
  Alcotest.(check int) "unsargable WHERE scans" 1
    (scans "UPDATE t SET dept = 'r' WHERE k + 0 = 2")

(* A constant the indexed column cannot take exactly is no probe key:
   the statement plans a seq scan and gives the unindexed answer. 'NOW'
   is no Chronon literal (it is an Instant), so the B+tree on [ch] must
   not be probed with it. *)
let check_inexact_constant_scans () =
  let indexed = make_db ~partitioned:false ~indexed:true in
  let plain = make_db ~partitioned:false ~indexed:false in
  let same sql =
    let a = outcome indexed sql and b = outcome plain sql in
    Alcotest.(check string) sql b a;
    if String.starts_with ~prefix:"error" a then Alcotest.failf "%s: %s" sql a;
    Alcotest.(check (list string)) (sql ^ ": rows") (contents ~partitioned:false plain)
      (contents ~partitioned:false indexed)
  in
  same "SELECT COUNT(*) FROM t WHERE ch < 'NOW'";
  same "SELECT * FROM t WHERE ch < 'NOW'";
  (match Db.exec indexed "EXPLAIN SELECT COUNT(*) FROM t WHERE ch < 'NOW'" with
  | Db.Message plan ->
    let contains needle =
      match Str.search_forward (Str.regexp_string needle) plan 0 with
      | _ -> true
      | exception Not_found -> false
    in
    if not (contains "SeqScan t") || contains "IndexScan" then
      Alcotest.failf "expected a SeqScan:\n%s" plan
  | r -> Alcotest.failf "EXPLAIN gave %s" (Db.render_result r)
  | exception Db.Error m -> Alcotest.failf "EXPLAIN failed: %s" m);
  same "UPDATE t SET k = 0 WHERE ch <= 'NOW'";
  same "DELETE FROM t WHERE ch < 'NOW'"

(* Every constant spelling the generator draws, in one fixed pass: the
   indexed and the unindexed copy give the same rows and counts. *)
let spellings =
  [ "k < 3"; "3 > k"; "k BETWEEN 2 AND 4"; "f < 1.5"; "f = 1"; "1.5 >= f";
    "f BETWEEN 0.5 AND 1.5"; "d = '2020-03-04'"; "d < '2020-03-10 12:00:00'";
    "'2020-03-01' <= d"; "d BETWEEN '2020-03-01' AND '2020-06-15 18:00:00'";
    "d > '2020-03-03 06:00:00'::Chronon"; "d < '2020-03-03 06:00:00'::Chronon";
    "ch < '2020-03-15'";
    "'2020-03-01 12:00:00' < ch"; "ch >= '2020-03-01'::Chronon";
    "ch < '2020-06-01'::DATE"; "ch BETWEEN '2020-03-01' AND '2020-06-01 12:00:00'";
    "ch <= 'NOW-30'"; "'NOW' > ch"; "ch BETWEEN '2020-06-01' AND 'NOW'";
    "c = 'abcd'"; "c = 'abcde'"; "c < 'abcde'"; "c <= 'abcdz'"; "'abcde' > c";
    "c BETWEEN 'abc' AND 'abcde'"; "c < 'bbbbb'";
    "overlaps(valid, '{[2020-03-01, 2020-03-15]}'::Element)";
    "overlaps('{[2021-03-01, 2021-03-15]}'::Element, valid)";
    "contains(valid, '{[2020-03-10, 2020-03-11]}'::Element)";
    "overlaps(valid, '{[NOW-400, NOW-300]}')" ]

let check_spellings ~partitioned () =
  let indexed = make_db ~partitioned ~indexed:true in
  let plain = make_db ~partitioned ~indexed:false in
  List.iter
    (fun where ->
      List.iter
        (fun sql ->
          Alcotest.(check string) sql (outcome plain sql) (outcome indexed sql))
        [ "SELECT * FROM t WHERE " ^ where; "SELECT COUNT(*) FROM t WHERE " ^ where ])
    spellings

(* UPDATE and DELETE resolve column references as SELECT does: the
   target is bound under its own name, so a qualifier naming anything
   else is an error and changes nothing, flat or partitioned. *)
let check_qualifiers ~partitioned () =
  let db = Tip_blade.Blade.create_database () in
  let cols = "id INT, v INT, valid Element" in
  ignore
    (Db.exec db
       (if partitioned then
          Printf.sprintf
            "CREATE TABLE acct (%s) PARTITION BY RANGE (valid) (PARTITION \
             y2020 FOR VALUES FROM '2020-01-01' TO '2021-01-01', PARTITION \
             pdefault DEFAULT)"
            cols
        else Printf.sprintf "CREATE TABLE acct (%s)" cols));
  ignore
    (Db.exec db
       "INSERT INTO acct VALUES (1, 10, '{[2020-03-01, 2020-04-01]}'), (2, \
        20, '{[2021-03-01, 2021-04-01]}'), (3, 30, '{[2020-05-01, \
        2020-06-01]}')");
  let rows () = outcome db "SELECT id, v FROM acct" in
  let fails sql alias =
    let before = rows () in
    let msg =
      match Db.exec db sql with
      | _ -> Alcotest.failf "%s: expected an error" sql
      | exception (Db.Error m | Tip_engine.Planner.Plan_error m) -> m
    in
    Alcotest.(check string) sql ("unknown table or alias " ^ alias) msg;
    Alcotest.(check string) (sql ^ " changes nothing") before (rows ())
  in
  fails "UPDATE acct SET v = 99 WHERE zz.id = 1" "zz";
  fails "UPDATE acct SET v = zz.v + 1" "zz";
  fails "DELETE FROM acct WHERE nosuch.id = 2" "nosuch";
  let affected sql n = Alcotest.(check string) sql n (outcome db sql) in
  affected "UPDATE acct SET v = acct.v + 1 WHERE acct.id = 1" "affected 1";
  affected "UPDATE ACCT SET v = Acct.v + 1 WHERE ACCT.id = 1" "affected 1";
  affected "DELETE FROM acct WHERE acct.id = 2" "affected 1";
  Alcotest.(check string) "after the qualified changes" "1\t12\n3\t30" (rows ());
  affected
    "DELETE FROM acct WHERE EXISTS (SELECT 1 FROM acct AS b WHERE b.id > \
     acct.id)"
    "affected 1";
  Alcotest.(check string) "the correlated delete keeps the last id" "3\t30"
    (rows ())

let suite =
  [ Alcotest.test_case "indexed DML skips the full scan" `Quick
      check_no_full_scan;
    QCheck_alcotest.to_alcotest (prop_indexed_equals_plain ~partitioned:false);
    QCheck_alcotest.to_alcotest (prop_indexed_equals_plain ~partitioned:true);
    Alcotest.test_case "an inexact constant plans a seq scan" `Quick
      check_inexact_constant_scans;
    Alcotest.test_case "every constant spelling, flat" `Quick
      (check_spellings ~partitioned:false);
    Alcotest.test_case "every constant spelling, partitioned" `Quick
      (check_spellings ~partitioned:true);
    Alcotest.test_case "DML qualifiers, flat" `Quick
      (check_qualifiers ~partitioned:false);
    Alcotest.test_case "DML qualifiers, partitioned" `Quick
      (check_qualifiers ~partitioned:true) ]
