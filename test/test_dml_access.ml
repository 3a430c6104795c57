(* UPDATE and DELETE take their candidate rows from the access path a
   SELECT would use (B+tree range or interval probe) and recheck the
   WHERE. Differential: random DML sequences run against two copies of
   the same table, one with a B+tree on [k] and [id] and an interval
   index on [valid], one with no index, must affect the same counts and
   leave the same rows under the same rids, flat and partitioned. *)

open Tip_storage
module Db = Tip_engine.Database

let flat_ddl = "CREATE TABLE t (id INT, k INT, dept CHAR(8), valid Element)"

let part_ddl =
  "CREATE TABLE t (id INT, k INT, dept CHAR(8), valid Element) PARTITION BY \
   RANGE (valid) (PARTITION y2020 FOR VALUES FROM '2020-01-01' TO \
   '2021-01-01', PARTITION y2021 FOR VALUES FROM '2021-01-01' TO \
   '2022-01-01', PARTITION pdefault DEFAULT)"

let indexes =
  [ "CREATE INDEX tk ON t (k)"; "CREATE INDEX tid ON t (id)";
    "CREATE INDEX tv ON t (valid) USING INTERVAL" ]

(* 60 rows: duplicate and NULL keys, one- and two-period elements in
   2020 and 2021, NOW-relative and NULL timestamps. *)
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
      Printf.sprintf "INSERT INTO t VALUES (%d, %s, %s, %s)" id k dept valid)

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
  let period =
    map2
      (fun y m -> Printf.sprintf "'{[%d-%02d-01, %d-%02d-15]}'::Element" y m y m)
      (int_range 2020 2021) (int_range 1 12)
  in
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
      return "overlaps(valid, '{[NOW-30, NOW]}'::Element)";
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
        map (Printf.sprintf "id = id + %d") (int_range 1 5) ]
  in
  frequency
    [ (4, map2 (Printf.sprintf "UPDATE t SET %s%s") set where_gen);
      (2, map (Printf.sprintf "DELETE FROM t%s") where_gen);
      (1,
       map2
         (fun id k ->
           Printf.sprintf
             "INSERT INTO t VALUES (%d, %d, 'n', '{[2020-05-01, 2021-05-01]}')"
             id k)
         (int_range 61 80) (int_range 0 8)) ]

(* --- Comparison ---------------------------------------------------------------- *)

let outcome db sql =
  match Db.exec db sql with
  | Db.Affected n -> Printf.sprintf "affected %d" n
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

let suite =
  [ Alcotest.test_case "indexed DML skips the full scan" `Quick
      check_no_full_scan;
    QCheck_alcotest.to_alcotest (prop_indexed_equals_plain ~partitioned:false);
    QCheck_alcotest.to_alcotest (prop_indexed_equals_plain ~partitioned:true) ]
