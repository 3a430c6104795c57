(* NoREC for [overlaps] (Rigger & Su, ESEC/FSE 2020): the count of rows a
   WHERE keeps must equal the count of rows where the same predicate,
   moved into the select list, is true. The WHERE form runs the batch
   [overlaps] kernel (and may be pruned or pushed down); the CASE form
   evaluates the routine row at a time. Random elements mix fixed,
   NOW-relative, inverted (empty) and NULL timestamps; the constants are
   one-period, multi-period and NOW-relative, written as a plain string
   and as an [::Element] cast, on either side of the call, under several
   NOWs, over a flat and a partitioned table. *)

module Db = Tip_engine.Database
open Tip_storage

let columns = "id INT, valid Element"

let flat_ddl = Printf.sprintf "CREATE TABLE t (%s)" columns

let part_ddl =
  Printf.sprintf
    "CREATE TABLE t (%s) PARTITION BY RANGE (valid) (PARTITION y2020 FOR \
     VALUES FROM '2020-01-01' TO '2021-01-01', PARTITION y2021 FOR VALUES \
     FROM '2021-01-01' TO '2022-01-01', PARTITION pdefault DEFAULT)"
    columns

let date st =
  Printf.sprintf "%d-%02d-%02d"
    (2019 + Random.State.int st 4)
    (1 + Random.State.int st 12)
    (1 + Random.State.int st 28)

(* An endpoint: mostly a date, sometimes NOW or NOW plus or minus days. *)
let endpoint st =
  match Random.State.int st 8 with
  | 0 -> "NOW"
  | 1 -> Printf.sprintf "NOW-%d" (Random.State.int st 400)
  | 2 -> Printf.sprintf "NOW+%d" (Random.State.int st 100)
  | _ -> date st

(* A period in written order, so about half of the random ones are
   inverted (empty). *)
let period st = Printf.sprintf "[%s, %s]" (endpoint st) (endpoint st)

let element st =
  let n = 1 + Random.State.int st 3 in
  "{" ^ String.concat ", " (List.init n (fun _ -> period st)) ^ "}"

let row_value st = if Random.State.int st 10 = 0 then "NULL" else "'" ^ element st ^ "'"

let constants =
  [ "{[2020-03-01, 2020-03-31]}";
    "{[2021-07-04, 2021-07-04]}";
    "{[2019-01-01, 2022-12-31]}";
    "{[2020-02-01, 2020-02-10], [2020-09-01, 2021-02-01]}";
    "{[2021-05-01, 2021-04-01], [2022-01-01, 2022-03-01]}";
    "{[2022-06-01, 2022-06-30], [2019-06-01, 2019-06-30], [2020-06-01, 2020-06-30]}";
    "{[NOW-30, NOW]}";
    "{[NOW-400, NOW-300], [2020-01-01, 2020-01-15]}";
    "{[2021-01-01, NOW+10]}";
    "{}" ]

let nows = [ "2020-06-15"; "2021-01-01"; "2022-12-31" ]

let count db sql =
  match Db.rows_exn (Db.exec db sql) with
  | [ [| Value.Int n |] ] -> n
  | [ [| Value.Null |] ] -> 0
  | _ -> Alcotest.failf "unexpected result for %s" sql

let check_table ~partitioned seed () =
  let st = Random.State.make [| seed |] in
  let db = Tip_blade.Blade.create_database () in
  ignore (Db.exec db (if partitioned then part_ddl else flat_ddl));
  let between = ref 0 in
  for id = 1 to 120 do
    ignore (Db.exec db (Printf.sprintf "INSERT INTO t VALUES (%d, %s)" id (row_value st)))
  done;
  List.iter
    (fun now ->
      ignore (Db.exec db (Printf.sprintf "SET NOW = '%s'" now));
      List.iter
        (fun c ->
          List.iter
            (fun lit ->
              List.iter
                (fun call ->
                  let where = count db ("SELECT COUNT(*) FROM t WHERE " ^ call) in
                  let case =
                    count db
                      ("SELECT SUM(CASE WHEN " ^ call ^ " THEN 1 ELSE 0 END) FROM t")
                  in
                  if where > 0 && where < 120 then incr between;
                  Alcotest.(check int) (Printf.sprintf "NOW %s: %s" now call) case where)
                [ Printf.sprintf "overlaps(valid, %s)" lit;
                  Printf.sprintf "overlaps(%s, valid)" lit ])
            [ "'" ^ c ^ "'"; "'" ^ c ^ "'::Element" ])
        constants)
    nows;
  (* the data must split: a predicate true or false on every row shows
     nothing *)
  Alcotest.(check bool) "some counts are partial" true (!between > 100)

let suite =
  [ Alcotest.test_case "overlaps NoREC, flat" `Quick (check_table ~partitioned:false 31);
    Alcotest.test_case "overlaps NoREC, partitioned" `Quick
      (check_table ~partitioned:true 32) ]
