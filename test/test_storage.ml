open Tip_storage

let value = Alcotest.testable Value.pp Value.equal

(* A test-local extension type, proving the registry works without the
   TIP blade: a "mood" wrapping a string. *)
type Value.ext += Mood of string

let mood s = Value.Ext ("mood", Mood s)

let mood_registered =
  lazy
    (Value.register_type ~name:"Mood"
       { Value.parse = (fun s -> mood s);
         print =
           (fun b v ->
             match v with
             | Value.Ext ("mood", Mood s) -> Buffer.add_string b s
             | _ -> raise (Value.Type_error "not a mood"));
         compare =
           Some
             (fun a b ->
               match a, b with
               | Value.Ext (_, Mood x), Value.Ext (_, Mood y) -> String.compare x y
               | _ -> raise (Value.Type_error "not moods"));
         extents = None;
         overlaps = None })

(* --- Value ------------------------------------------------------------- *)

let check_value_compare () =
  Alcotest.(check bool) "int/float compare" true
    (Value.compare (Value.Int 1) (Value.Float 1.5) < 0);
  Alcotest.(check bool) "int = integral float" true
    (Value.equal (Value.Int 2) (Value.Float 2.0));
  Alcotest.(check bool) "hash agrees on int/float equality" true
    (Value.hash (Value.Int 2) = Value.hash (Value.Float 2.0));
  Alcotest.(check bool) "strings" true
    (Value.compare (Value.Str "a") (Value.Str "b") < 0);
  (* Cross-kind comparisons fall back to a fixed rank so ORDER BY has a
     total order; only same-rank incompatibilities are type errors. *)
  Alcotest.(check bool) "cross-kind ordering is deterministic" true
    (Value.compare (Value.Int 1) (Value.Str "x") < 0);
  Lazy.force mood_registered;
  Alcotest.(check bool) "different ext types are a type error" true
    (match Value.compare (mood "hm") (Value.Ext ("other", Mood "x")) with
    | _ -> false
    | exception Value.Type_error _ -> true)

let check_ext_type () =
  Lazy.force mood_registered;
  Alcotest.(check string) "prints via vtable" "sunny"
    (Value.to_display_string (mood "sunny"));
  Alcotest.(check bool) "compares via vtable" true
    (Value.compare (mood "grumpy") (mood "sunny") < 0);
  Alcotest.(check string) "type name" "mood" (Value.type_name (mood "hm"))

(* --- Schema -------------------------------------------------------------- *)

let check_schema () =
  Lazy.force mood_registered;
  let schema =
    Schema.make ~table_name:"T"
      [ Schema.make_column ~primary_key:true "id" Schema.T_int;
        Schema.make_column "name" (Schema.T_char (Some 5));
        Schema.make_column "state" (Schema.type_of_name "Mood") ]
  in
  Alcotest.(check int) "arity" 3 (Schema.arity schema);
  Alcotest.(check (option int)) "case-insensitive lookup" (Some 1)
    (Schema.column_index schema "NAME");
  Alcotest.(check (option int)) "pk" (Some 0) (Schema.primary_key_index schema);
  Alcotest.(check (option value)) "char truncation"
    (Some (Value.Str "abcde"))
    (Schema.coerce (Schema.T_char (Some 5)) (Value.Str "abcdefgh"));
  Alcotest.(check (option value)) "int widens to float"
    (Some (Value.Float 3.))
    (Schema.coerce Schema.T_float (Value.Int 3));
  Alcotest.(check (option value)) "mismatch rejected" None
    (Schema.coerce Schema.T_int (Value.Str "1"));
  Alcotest.check_raises "unknown type"
    (Schema.Schema_error "unknown type Wibble (is the DataBlade installed?)")
    (fun () -> ignore (Schema.type_of_name "Wibble"))

(* --- Btree --------------------------------------------------------------- *)

let check_btree_basics () =
  let bt = Btree.create () in
  for i = 0 to 999 do
    Btree.insert bt (Value.Int ((i * 37) mod 1000)) i
  done;
  Btree.check_invariants bt;
  Alcotest.(check int) "entries" 1000 (Btree.entry_count bt);
  Alcotest.(check bool) "exact lookup" true (Btree.find bt (Value.Int 37) <> []);
  let hits =
    Btree.range bt ~lo:(Btree.Inclusive (Value.Int 10))
      ~hi:(Btree.Exclusive (Value.Int 20))
  in
  Alcotest.(check int) "range [10,20) has 10 keys" 10 (List.length hits);
  ignore (Btree.remove bt (Value.Int 37) ((37 * 27 (* inverse of 37 mod 1000? *)) mod 1000));
  Btree.check_invariants bt

let check_btree_duplicates () =
  let bt = Btree.create () in
  Btree.insert bt (Value.Str "k") 1;
  Btree.insert bt (Value.Str "k") 2;
  Btree.insert bt (Value.Str "k") 3;
  Alcotest.(check (list int)) "multimap" [ 3; 2; 1 ] (Btree.find bt (Value.Str "k"));
  Alcotest.(check bool) "remove one" true (Btree.remove bt (Value.Str "k") 2);
  Alcotest.(check (list int)) "two left" [ 3; 1 ] (Btree.find bt (Value.Str "k"));
  Alcotest.(check bool) "remove absent" false (Btree.remove bt (Value.Str "k") 9)

let btree_ops_arb =
  let open QCheck in
  let op =
    let open Gen in
    let* key = int_range 0 200 in
    let* rid = int_range 0 50 in
    let* is_insert = bool in
    return (key, rid, is_insert)
  in
  make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (fun (k, r, i) -> Printf.sprintf "%s(%d,%d)" (if i then "I" else "D") k r)
           ops))
    QCheck.Gen.(list_size (int_range 0 400) op)

let prop_btree_matches_oracle =
  QCheck.Test.make ~name:"btree = sorted-map oracle" ~count:300 btree_ops_arb
    (fun ops ->
      let bt = Btree.create () in
      let module M = Map.Make (Int) in
      let oracle = ref M.empty in
      List.iter
        (fun (k, rid, is_insert) ->
          if is_insert then begin
            Btree.insert bt (Value.Int k) rid;
            oracle :=
              M.update k
                (fun rids -> Some (rid :: Option.value rids ~default:[]))
                !oracle
          end
          else begin
            let present =
              match M.find_opt k !oracle with
              | Some rids -> List.mem rid rids
              | None -> false
            in
            let removed = Btree.remove bt (Value.Int k) rid in
            if removed <> present then QCheck.Test.fail_report "remove mismatch";
            if present then begin
              oracle :=
                M.update k
                  (fun rids ->
                    let rids = Option.value rids ~default:[] in
                    let rec drop_one = function
                      | [] -> []
                      | r :: rest -> if r = rid then rest else r :: drop_one rest
                    in
                    match drop_one rids with [] -> None | l -> Some l)
                  !oracle
            end
          end)
        ops;
      Btree.check_invariants bt;
      (* Compare a handful of range scans against the oracle. *)
      List.for_all
        (fun (lo, hi) ->
          let got =
            Btree.range bt ~lo:(Btree.Inclusive (Value.Int lo))
              ~hi:(Btree.Inclusive (Value.Int hi))
            |> List.sort Int.compare
          in
          let expected =
            M.fold
              (fun k rids acc -> if k >= lo && k <= hi then rids @ acc else acc)
              !oracle []
            |> List.sort Int.compare
          in
          got = expected)
        [ (0, 200); (50, 60); (199, 0); (100, 100) ])

(* --- Interval index -------------------------------------------------------- *)

let check_interval_basics () =
  let idx = Interval_index.create () in
  Interval_index.insert idx ~lo:0 ~hi:10 1;
  Interval_index.insert idx ~lo:5 ~hi:15 2;
  Interval_index.insert idx ~lo:20 ~hi:30 3;
  Interval_index.check_invariants idx;
  Alcotest.(check (list int)) "stab at 7" [ 1; 2 ]
    (List.sort Int.compare (Interval_index.query_stab idx ~at:7));
  Alcotest.(check (list int)) "window 12..25" [ 2; 3 ]
    (List.sort Int.compare (Interval_index.query_overlaps idx ~lo:12 ~hi:25));
  Alcotest.(check bool) "remove" true (Interval_index.remove idx ~lo:5 ~hi:15 2);
  Alcotest.(check bool) "remove absent" false
    (Interval_index.remove idx ~lo:5 ~hi:15 2);
  Alcotest.(check (list int)) "after removal" [ 1 ]
    (Interval_index.query_stab idx ~at:7)

let interval_ops_arb =
  let open QCheck in
  let iv =
    let open Gen in
    let* lo = int_range 0 500 in
    let* len = int_range 0 80 in
    return (lo, lo + len)
  in
  make
    ~print:(fun ivs ->
      String.concat ";" (List.map (fun (l, h) -> Printf.sprintf "[%d,%d]" l h) ivs))
    QCheck.Gen.(list_size (int_range 0 200) iv)

let prop_interval_matches_bruteforce =
  QCheck.Test.make ~name:"interval index = brute force" ~count:300
    interval_ops_arb (fun ivs ->
      let idx = Interval_index.create () in
      List.iteri (fun rid (lo, hi) -> Interval_index.insert idx ~lo ~hi rid) ivs;
      Interval_index.check_invariants idx;
      (* Remove every third interval. *)
      List.iteri
        (fun rid (lo, hi) ->
          if rid mod 3 = 0 then
            ignore (Interval_index.remove idx ~lo ~hi rid))
        ivs;
      Interval_index.check_invariants idx;
      let live = List.filteri (fun rid _ -> rid mod 3 <> 0) (List.mapi (fun i iv -> (i, iv)) ivs) in
      List.for_all
        (fun (qlo, qhi) ->
          let got =
            Interval_index.query_overlaps idx ~lo:qlo ~hi:qhi
            |> List.sort Int.compare
          in
          let expected =
            List.filter_map
              (fun (rid, (lo, hi)) ->
                if lo <= qhi && qlo <= hi then Some rid else None)
              live
            |> List.sort Int.compare
          in
          got = expected)
        [ (0, 600); (100, 120); (250, 250); (590, 600) ])

(* --- Heap ------------------------------------------------------------------ *)

let check_heap () =
  let h = Heap.create () in
  let r1 = Heap.insert h [| Value.Int 1 |] in
  let r2 = Heap.insert h [| Value.Int 2 |] in
  let r3 = Heap.insert h [| Value.Int 3 |] in
  Alcotest.(check int) "live" 3 (Heap.live_count h);
  Alcotest.(check bool) "delete" true (Heap.delete h r2);
  Alcotest.(check bool) "double delete" false (Heap.delete h r2);
  Alcotest.(check (list int)) "iterates live only" [ r1; r3 ] (Heap.rids h);
  let r4 = Heap.insert h [| Value.Int 4 |] in
  Alcotest.(check int) "tombstone recycled" r2 r4;
  Alcotest.check value "row content" (Value.Int 4) (Heap.get_exn h r4).(0)

(* --- Table ------------------------------------------------------------------ *)

(* A full scan reads a heap without tombstones slot by slot and one with
   tombstones through its live rids; both see the same rows. Each table
   spans several executor chunks. *)
let check_dense_scan () =
  let module Db = Tip_engine.Database in
  let db = Db.create () in
  let exec sql = ignore (Db.exec db sql) in
  exec "CREATE TABLE dense (id INT, tag CHAR(8))";
  exec "CREATE TABLE holey (id INT, tag CHAR(8))";
  for i = 0 to 2_999 do
    let row = Printf.sprintf "(%d, 't%d')" i (i mod 7) in
    exec ("INSERT INTO dense VALUES " ^ row);
    exec (Printf.sprintf "INSERT INTO holey VALUES %s, (-1, 'gone')" row)
  done;
  exec "DELETE FROM holey WHERE id = -1";
  let table name = Catalog.table_exn (Db.catalog db) name in
  let kind t = match Table.scan t with Table.Slots _ -> "slots" | Table.Rids _ -> "rids" in
  Alcotest.(check string) "no tombstones: slot scan" "slots" (kind (table "dense"));
  Alcotest.(check string) "tombstones: rid scan" "rids" (kind (table "holey"));
  let rows sql =
    List.map
      (fun row -> String.concat "|" (Array.to_list (Array.map Value.to_display_string row)))
      (Db.rows_exn (Db.exec db sql))
  in
  List.iter
    (fun (select, where) ->
      Alcotest.(check (list string)) (select ^ where)
        (rows (select ^ " FROM dense" ^ where))
        (rows (select ^ " FROM holey" ^ where)))
    [ ("SELECT *", ""); ("SELECT COUNT(*)", ""); ("SELECT id", " WHERE tag = 't3'") ];
  (* Refilling every tombstone makes the heap dense again. *)
  for _ = 0 to 2_999 do
    exec "INSERT INTO holey VALUES (-2, 'new')"
  done;
  Alcotest.(check string) "tombstones refilled: slot scan" "slots" (kind (table "holey"))

let patient_schema () =
  Schema.make ~table_name:"patients"
    [ Schema.make_column ~primary_key:true "id" Schema.T_int;
      Schema.make_column ~not_null:true "name" (Schema.T_char (Some 20));
      Schema.make_column "weight" Schema.T_float ]

let check_table_constraints () =
  let t = Table.create (patient_schema ()) in
  let rid = Table.insert t [| Value.Int 1; Value.Str "Mr.Showbiz"; Value.Int 80 |] in
  Alcotest.check value "int widened in float column" (Value.Float 80.)
    (Table.get_exn t rid).(2);
  Alcotest.check_raises "duplicate pk"
    (Table.Constraint_violation "duplicate key 1 for unique index patients_pkey")
    (fun () -> ignore (Table.insert t [| Value.Int 1; Value.Str "X"; Value.Null |]));
  Alcotest.check_raises "null in not-null"
    (Table.Constraint_violation "column name of patients is NOT NULL")
    (fun () -> ignore (Table.insert t [| Value.Int 2; Value.Null; Value.Null |]));
  Alcotest.check_raises "arity"
    (Table.Constraint_violation "table patients expects 3 values, got 1")
    (fun () -> ignore (Table.insert t [| Value.Int 9 |]));
  Alcotest.check_raises "type mismatch"
    (Table.Constraint_violation
       "column id of patients expects INT, got char (two)") (fun () ->
      ignore (Table.insert t [| Value.Str "two"; Value.Str "Y"; Value.Null |]));
  (* A failed insert must leave the table unchanged. *)
  Alcotest.(check int) "row count" 1 (Table.row_count t)

let check_table_index_maintenance () =
  let t = Table.create (patient_schema ()) in
  let idx =
    Table.create_index t ~idx_name:"by_name" ~column:"name" ~unique:false
      ~kind:Table.Ordered
  in
  let bt = match idx.Table.impl with
    | Table.Ordered_impl bt -> bt
    | Table.Interval_impl _ -> Alcotest.fail "wrong kind"
  in
  let rid = Table.insert t [| Value.Int 1; Value.Str "Ann"; Value.Null |] in
  ignore (Table.insert t [| Value.Int 2; Value.Str "Bob"; Value.Null |]);
  Alcotest.(check (list int)) "index sees insert" [ rid ]
    (Btree.find bt (Value.Str "Ann"));
  ignore (Table.update t rid [| Value.Int 1; Value.Str "Anna"; Value.Null |]);
  Alcotest.(check (list int)) "old key gone" [] (Btree.find bt (Value.Str "Ann"));
  Alcotest.(check (list int)) "new key present" [ rid ]
    (Btree.find bt (Value.Str "Anna"));
  (* An update that keeps the indexed value, the same one or an equal
     copy, keeps the row findable under it exactly once. *)
  let entries = Btree.entry_count bt in
  ignore (Table.update t rid [| Value.Int 10; Value.Str "Anna"; Value.Null |]);
  let kept = Table.get_exn t rid in
  ignore (Table.update t rid [| Value.Int 11; kept.(1); Value.Null |]);
  Alcotest.(check (list int)) "unchanged key still indexed" [ rid ]
    (Btree.find bt (Value.Str "Anna"));
  Alcotest.(check int) "no entry added or lost" entries (Btree.entry_count bt);
  ignore (Table.delete t rid);
  Alcotest.(check (list int)) "delete maintains index" []
    (Btree.find bt (Value.Str "Anna"));
  (* Unique secondary index backfill failure. *)
  ignore (Table.insert t [| Value.Int 3; Value.Str "Bob"; Value.Null |]);
  Alcotest.(check bool) "unique backfill fails on duplicates" true
    (match
       Table.create_index t ~idx_name:"uniq_name" ~column:"name" ~unique:true
         ~kind:Table.Ordered
     with
    | _ -> false
    | exception Table.Constraint_violation _ -> true)

(* --- Catalog & persistence ---------------------------------------------------- *)

(* An update that keeps a B-tree key leaves that key's rids in their
   order, whether it runs live (reusing the old value, as UPDATE does)
   or is replayed from the WAL with every cell parsed afresh, so a
   primary and a replica list equal keys the same way. *)
let check_replayed_update_keeps_index () =
  let cells row = Array.map Persist.serialize_value row in
  let ann = Value.Str "Ann" in
  let open_side () =
    let cat = Catalog.create () in
    List.iter (Wal.apply cat)
      [ Wal.Create_table
          { table = "patients"; columns = Schema.columns (patient_schema ()) };
        Wal.Create_index
          { idx_name = "by_name"; table = "patients"; column = "name";
            interval = false; unique = false };
        Wal.Insert
          { table = "patients"; cells = cells [| Value.Int 1; ann; Value.Float 60. |] };
        Wal.Insert
          { table = "patients"; cells = cells [| Value.Int 2; ann; Value.Float 70. |] } ];
    let t = Option.get (Catalog.find_table cat "patients") in
    match Table.find_index t "by_name" with
    | Some { Table.impl = Table.Ordered_impl bt; _ } -> (cat, t, bt)
    | Some _ | None -> Alcotest.fail "no B-tree index"
  in
  let _, live, live_bt = open_side () in
  let replica, _, replica_bt = open_side () in
  let before = Btree.find live_bt ann in
  Alcotest.(check int) "two rids under one key" 2 (List.length before);
  let rid = List.find (fun rid -> (Table.get_exn live rid).(0) = Value.Int 1) before in
  let old_row = Table.get_exn live rid in
  let new_row = [| old_row.(0); old_row.(1); Value.Float 61. |] in
  ignore (Table.update live rid new_row);
  Wal.apply replica
    (Wal.Update
       { table = "patients"; old_cells = cells old_row; new_cells = cells new_row });
  Alcotest.(check (list int)) "live update keeps the rid order" before
    (Btree.find live_bt ann);
  Alcotest.(check (list int)) "replayed update keeps the rid order" before
    (Btree.find replica_bt ann)

let check_catalog () =
  let cat = Catalog.create () in
  let t = Catalog.create_table cat (patient_schema ()) in
  Alcotest.(check bool) "case-insensitive lookup" true
    (Catalog.find_table cat "PATIENTS" == Some t |> fun _ ->
     Catalog.find_table cat "PATIENTS" <> None);
  Alcotest.check_raises "duplicate table"
    (Catalog.Catalog_error "table patients already exists") (fun () ->
      ignore (Catalog.create_table cat (patient_schema ())));
  ignore
    (Catalog.create_index cat ~idx_name:"by_name" ~table_name:"patients"
       ~column:"name" ~unique:false ~kind:Table.Ordered);
  Alcotest.check_raises "duplicate index name is global"
    (Catalog.Catalog_error "index by_name already exists") (fun () ->
      ignore
        (Catalog.create_index cat ~idx_name:"by_name" ~table_name:"patients"
           ~column:"weight" ~unique:false ~kind:Table.Ordered));
  Alcotest.(check bool) "drop index" true (Catalog.drop_index cat "by_name");
  Alcotest.(check bool) "drop table" true (Catalog.drop_table cat "patients");
  Alcotest.(check bool) "gone" true (Catalog.find_table cat "patients" = None)

let check_persist_roundtrip () =
  Lazy.force mood_registered;
  let cat = Catalog.create () in
  let schema =
    Schema.make ~table_name:"t"
      [ Schema.make_column ~primary_key:true "id" Schema.T_int;
        Schema.make_column "note" (Schema.T_char None);
        Schema.make_column "state" (Schema.type_of_name "Mood");
        Schema.make_column "born" Schema.T_date;
        Schema.make_column "score" Schema.T_float;
        Schema.make_column "ok" Schema.T_bool ]
  in
  let t = Catalog.create_table cat schema in
  let date = Tip_core.Chronon.of_ymd 1999 9 1 in
  ignore
    (Table.insert t
       [| Value.Int 1; Value.Str "tab\there\nand newline \\ backslash";
          Value.Ext ("mood", Mood "sunny"); Value.Date date; Value.Float 1.5;
          Value.Bool true |]);
  ignore
    (Table.insert t
       [| Value.Int 2; Value.Null; Value.Null; Value.Null; Value.Null;
          Value.Null |]);
  ignore
    (Catalog.create_index cat ~idx_name:"by_note" ~table_name:"t" ~column:"note"
       ~unique:false ~kind:Table.Ordered);
  let path = Filename.temp_file "tipdb" ".snapshot" in
  Persist.save cat path;
  let cat' = Persist.load path in
  Sys.remove path;
  let t' = Catalog.table_exn cat' "t" in
  Alcotest.(check int) "row count" 2 (Table.row_count t');
  let rows = ref [] in
  Table.iteri (fun _ row -> rows := row :: !rows) t';
  let rows = List.rev !rows in
  (match rows with
  | [ r1; r2 ] ->
    Alcotest.check value "escaped text" (Value.Str "tab\there\nand newline \\ backslash") r1.(1);
    Alcotest.check value "ext value" (Value.Ext ("mood", Mood "sunny")) r1.(2);
    Alcotest.check value "date" (Value.Date date) r1.(3);
    Alcotest.check value "null" Value.Null r2.(1)
  | _ -> Alcotest.fail "expected two rows");
  Alcotest.(check bool) "secondary index restored" true
    (Table.find_index t' "by_note" <> None);
  Alcotest.(check bool) "pkey index restored" true
    (Table.find_index t' "t_pkey" <> None)

(* A snapshot cell whose literal holds a number too long for an int is
   corrupt input: [Format_error], not a bare [Failure]. *)
let check_overflowing_cell () =
  Tip_blade.Values.register_types ();
  let snapshot cell =
    "tipdb 1\ntable t\ncolumn v EXT:element - 0 0\nrows 1\n" ^ cell ^ "\nend\n"
  in
  ignore (Persist.load_string (snapshot "{[1999-01-01, 2000-01-01]}"));
  List.iter
    (fun cell ->
      match Persist.load_string (snapshot cell) with
      | _ -> Alcotest.failf "%S loaded" cell
      | exception Persist.Format_error _ -> ())
    [ "{[99999999999999999999-01-01, 2000-01-01]}";
      "{[1999-01-01, NOW+99999999999999999999]}" ]

let suite =
  [ Alcotest.test_case "value comparison" `Quick check_value_compare;
    Alcotest.test_case "extension types via registry" `Quick check_ext_type;
    Alcotest.test_case "schema" `Quick check_schema;
    Alcotest.test_case "btree basics" `Quick check_btree_basics;
    Alcotest.test_case "btree duplicates" `Quick check_btree_duplicates;
    QCheck_alcotest.to_alcotest prop_btree_matches_oracle;
    Alcotest.test_case "interval index basics" `Quick check_interval_basics;
    QCheck_alcotest.to_alcotest prop_interval_matches_bruteforce;
    Alcotest.test_case "heap rid recycling" `Quick check_heap;
    Alcotest.test_case "dense scan = rid scan" `Quick check_dense_scan;
    Alcotest.test_case "table constraints" `Quick check_table_constraints;
    Alcotest.test_case "table index maintenance" `Quick
      check_table_index_maintenance;
    Alcotest.test_case "replayed update keeps the index" `Quick
      check_replayed_update_keeps_index;
    Alcotest.test_case "catalog" `Quick check_catalog;
    Alcotest.test_case "persistence roundtrip" `Quick check_persist_roundtrip;
    Alcotest.test_case "over-long number in a snapshot cell" `Quick
      check_overflowing_cell ]
