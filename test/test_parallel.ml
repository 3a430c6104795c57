(* Executor shapes against the reference evaluator: scans, filters,
   projections, hash joins and aggregates (NULL and multi-key groups,
   float sums, DISTINCT, blade aggregates, errors) over several chunks
   of rows, each returning exactly the rows of test/plan_reference.ml in
   the same order; the top-k LIMIT path against a full sort; and domain
   budget sizing. *)

open Tip_storage
module Db = Tip_engine.Database
module Domains = Tip_engine.Domains

let check = Alcotest.check

(* --- Domain budget ----------------------------------------------------------- *)

let test_resolve_size () =
  let r = Domains.resolve_size in
  check Alcotest.int "no env -> recommended" 4 (r ~env:None ~recommended:4);
  check Alcotest.int "env wins" 6 (r ~env:(Some "6") ~recommended:4);
  check Alcotest.int "TIP_PARALLEL=1 -> one domain" 1
    (r ~env:(Some "1") ~recommended:4);
  check Alcotest.int "env 0 ignored" 4 (r ~env:(Some "0") ~recommended:4);
  check Alcotest.int "env negative ignored" 4 (r ~env:(Some "-3") ~recommended:4);
  check Alcotest.int "env garbage ignored" 4 (r ~env:(Some "abc") ~recommended:4);
  check Alcotest.int "env clamped to max" Domains.max_size
    (r ~env:(Some "1000") ~recommended:4);
  check Alcotest.int "recommended clamped to max" Domains.max_size
    (r ~env:None ~recommended:500);
  check Alcotest.int "recommended floor of 1" 1 (r ~env:None ~recommended:0)

let test_set_size () =
  let old = Domains.size () in
  Fun.protect
    ~finally:(fun () -> Domains.set_size old)
    (fun () ->
      Domains.set_size 3;
      check Alcotest.int "override" 3 (Domains.size ());
      Domains.set_size 0;
      check Alcotest.int "clamped to 1" 1 (Domains.size ());
      Domains.set_size 10_000;
      check Alcotest.int "clamped to max" Domains.max_size (Domains.size ()))

(* --- SQL fixtures ------------------------------------------------------------- *)

(* Several chunks' worth of rows; [v] carries NULLs so the aggregates
   see them. *)
let big_db =
  lazy
    (let db = Db.create () in
     ignore (Db.exec db "CREATE TABLE nums (k INT, g INT, v INT)");
     let table = Catalog.table_exn (Db.catalog db) "nums" in
     for i = 0 to 2999 do
       let v = if i mod 11 = 0 then Value.Null else Value.Int (i mod 97) in
       ignore (Table.insert table [| Value.Int i; Value.Int (i mod 7); v |])
     done;
     ignore (Db.exec db "CREATE TABLE lookup (g INT, label CHAR(8))");
     let lk = Catalog.table_exn (Db.catalog db) "lookup" in
     for g = 0 to 4 do
       ignore
         (Table.insert lk [| Value.Int g; Value.Str (Printf.sprintf "g%d" g) |])
     done;
     db)

let run_sql db sql = Plan_reference.show_rows (Db.rows_exn (Db.exec db sql))
let check_reference ?(db = big_db) name sql = Plan_reference.check (Lazy.force db) name sql

let test_parallel_scan_filter () =
  check_reference "plain scan" "SELECT k, g, v FROM nums";
  check_reference "filtered scan" "SELECT k, v FROM nums WHERE v > 50";
  check_reference "filter keeps nothing" "SELECT k FROM nums WHERE k < 0";
  check_reference "projected arithmetic"
    "SELECT k * 2 + g FROM nums WHERE g <> 3"

let test_parallel_aggregate () =
  check_reference "grouped aggregates"
    "SELECT g, COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v) FROM nums GROUP BY g";
  check_reference "grouped avg" "SELECT g, AVG(v) FROM nums GROUP BY g";
  check_reference "grand aggregate"
    "SELECT COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v) FROM nums";
  check_reference "grand aggregate over empty input"
    "SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM nums WHERE k < 0";
  check_reference "grouped aggregate over filter"
    "SELECT g, COUNT(*) FROM nums WHERE v > 10 GROUP BY g";
  check_reference "distinct grand aggregate"
    "SELECT COUNT(DISTINCT g) FROM nums";
  (* Absolute spot-checks, so the executor and the reference being wrong
     together would show. *)
  let db = Lazy.force big_db in
  let rows = run_sql db in
  check Alcotest.(list string) "count(*)" [ "3000" ]
    (rows "SELECT COUNT(*) FROM nums");
  check Alcotest.(list string) "count skips nulls" [ "2727" ]
    (rows "SELECT COUNT(v) FROM nums");
  check
    Alcotest.(list string)
    "group order is first appearance"
    [ "0|429"; "1|429"; "2|429"; "3|429"; "4|428"; "5|428"; "6|428" ]
    (rows "SELECT g, COUNT(*) FROM nums GROUP BY g")

(* Many groups, multi-key groups and NULL keys: these shapes stress the
   group table and its first-appearance order. *)
let test_partitioned_grouping () =
  check_reference "500 groups"
    "SELECT k % 500, COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), AVG(v) \
     FROM nums GROUP BY k % 500";
  check_reference "a group per row" "SELECT k, COUNT(*) FROM nums GROUP BY k";
  check_reference "multi-key groups"
    "SELECT g, k % 3, COUNT(*), SUM(v) FROM nums GROUP BY g, k % 3";
  check_reference "NULL key" "SELECT v, COUNT(*) FROM nums GROUP BY v";
  check_reference "NULLs in a multi-key group"
    "SELECT v % 5, g, COUNT(*), MAX(k) FROM nums GROUP BY v % 5, g";
  check_reference "high-cardinality groups over a join"
    "SELECT nums.k % 700, lookup.label, COUNT(*) FROM nums, lookup \
     WHERE nums.g = lookup.g GROUP BY nums.k % 700, lookup.label"

(* Each group is folded once, in input order, so float sums are
   bit-identical to the reference's fold (compared in hexadecimal). *)
let test_float_sums_exact () =
  check_reference "grouped float SUM/AVG"
    "SELECT g, SUM(v * 0.1), AVG(k / 7.0), SUM(k * 0.001 + v) FROM nums GROUP BY g";
  check_reference "high-cardinality float SUM/AVG"
    "SELECT k % 97, SUM(k * 0.37), AVG(v * 1.1) FROM nums GROUP BY k % 97";
  check_reference "grand float SUM/AVG"
    "SELECT SUM(k * 0.1), AVG(v / 3.0) FROM nums"

let test_distinct_aggregates () =
  check_reference "per-group DISTINCT"
    "SELECT g, COUNT(DISTINCT v), SUM(DISTINCT v), COUNT(v) FROM nums GROUP BY g";
  check_reference "DISTINCT over 500 groups"
    "SELECT k % 500, COUNT(DISTINCT v % 3) FROM nums GROUP BY k % 500"

(* A blade database: 3,000 prescriptions-like rows over 300 patients,
   with NOW-relative, multi-period and empty (inverted) timestamps. *)
let blade_db =
  lazy
    (let db = Tip_blade.Blade.create_database () in
     ignore (Db.exec db "SET NOW = '1999-10-15'");
     ignore (Db.exec db "CREATE TABLE rx (patient INT, valid Element)");
     let table = Catalog.table_exn (Db.catalog db) "rx" in
     let day d = Tip_core.Chronon.(add (of_ymd 1999 1 1) (Tip_core.Span.of_days d)) in
     let period s len = Tip_core.Period.of_chronons (day s) (day (s + len)) in
     for i = 0 to 2999 do
       let s = i * 37 mod 400 in
       let periods =
         match i mod 5 with
         | 0 -> [ Tip_core.Period.since (day s) ]
         | 1 -> [ period s (i mod 20); period (s + 30) 5 ]
         | 2 -> [ period s (-3) ] (* inverted: empty *)
         | _ -> [ period s (i mod 20) ]
       in
       let valid =
         if i mod 17 = 0 then Value.Null
         else Tip_blade.Values.element (Tip_core.Element.of_periods periods)
       in
       ignore (Table.insert table [| Value.Int (i mod 300); valid |])
     done;
     db)

let test_blade_aggregates () =
  let db = blade_db in
  check_reference ~db "group_union per patient"
    "SELECT patient, group_union(valid), length(group_union(valid))::INT \
     FROM rx GROUP BY patient";
  check_reference ~db "group_intersect per patient"
    "SELECT patient, group_intersect(valid) FROM rx GROUP BY patient";
  check_reference ~db "group_profile per patient"
    "SELECT patient, max_value(group_profile(valid)) FROM rx GROUP BY patient";
  check_reference ~db "grand group_union"
    "SELECT group_union(valid), group_profile(valid) FROM rx"

(* A failing aggregate raises the error the reference's row-by-row fold
   meets first: SUM trips on the second row, long before the group key
   divides by zero on the last row. *)
let test_aggregate_error_matches () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE e (k INT, s CHAR(4))");
  let table = Catalog.table_exn (Db.catalog db) "e" in
  for i = 0 to 2999 do
    ignore (Table.insert table [| Value.Int i; Value.Str "x" |])
  done;
  let outcome () =
    match run_sql db "SELECT SUM(s) FROM e GROUP BY 10 / (k - 2999)" with
    | _ -> "no error"
    | exception e -> Printexc.to_string e
  in
  check Alcotest.bool "the fold fails in SUM" true
    (Str.string_match (Str.regexp ".*non-numeric") (outcome ()) 0);
  check_reference ~db:(lazy db) "the error is the reference's"
    "SELECT SUM(s) FROM e GROUP BY 10 / (k - 2999)"

let test_parallel_join () =
  check_reference "hash join probe"
    "SELECT nums.k, lookup.label FROM nums, lookup \
     WHERE nums.g = lookup.g AND nums.k < 500";
  check_reference "hash join then aggregate"
    "SELECT lookup.label, COUNT(*) FROM nums, lookup \
     WHERE nums.g = lookup.g GROUP BY lookup.label"

(* The hash-join build groups its rows by key gid: multi-key joins,
   NULL keys (which never join), duplicate keys on both sides, and each
   build side, emitting exactly the reference's rows in its probe-major
   order. ANALYZE makes the planner build on the smaller side. *)
let test_join_build () =
  let db = Db.create () in
  let exec sql = ignore (Db.exec db sql) in
  exec "CREATE TABLE l (a INT, b CHAR(4), x INT)";
  exec "CREATE TABLE r (a INT, b CHAR(4), y INT)";
  let key i = if i mod 13 = 0 then "NULL" else string_of_int (i mod 9) in
  let tag i = if i mod 17 = 0 then "NULL" else Printf.sprintf "'t%d'" (i mod 3) in
  for i = 0 to 2499 do
    exec (Printf.sprintf "INSERT INTO l VALUES (%s, %s, %d)" (key i) (tag i) i);
    if i < 400 then
      exec (Printf.sprintf "INSERT INTO r VALUES (%s, %s, %d)" (key (i * 7)) (tag (i * 5)) i)
  done;
  let db = lazy db in
  let shapes () =
    check_reference ~db "one key" "SELECT l.x, r.y FROM l, r WHERE l.a = r.a";
    check_reference ~db "two keys"
      "SELECT l.x, r.y, l.b FROM l, r WHERE l.a = r.a AND l.b = r.b";
    check_reference ~db "keys written right to left"
      "SELECT r.y, l.x FROM r, l WHERE r.b = l.b AND l.a = r.a AND l.x < 900";
    check_reference ~db "duplicates into an aggregate"
      "SELECT l.a, l.b, COUNT(*), SUM(r.y) FROM l, r WHERE l.a = r.a AND l.b = r.b \
       GROUP BY l.a, l.b"
  in
  let builds side sql =
    match Db.exec (Lazy.force db) ("EXPLAIN " ^ sql) with
    | Db.Message text -> (
      match Str.search_forward (Str.regexp_string ("build=" ^ side)) text 0 with
      | _ -> true
      | exception Not_found -> false)
    | _ -> false
  in
  shapes ();
  exec "ANALYZE l";
  exec "ANALYZE r";
  check Alcotest.bool "the smaller left side builds" true
    (builds "left" "SELECT r.y, l.x FROM r, l WHERE r.a = l.a");
  check Alcotest.bool "the smaller right side builds" true
    (builds "right" "SELECT l.x, r.y FROM l, r WHERE l.a = r.a");
  shapes ();
  check_reference ~db "the smaller left side builds, two keys"
    "SELECT r.y, l.x FROM r, l WHERE r.a = l.a AND r.b = l.b"

(* --- Top-k -------------------------------------------------------------------- *)

let take n l = List.filteri (fun i _ -> i < n) l
let drop n l = List.filteri (fun i _ -> i >= n) l

let test_topk_matches_full_sort () =
  let db = Lazy.force big_db in
  (* [v] has heavy duplication, so ties exercise the stable order. *)
  let full = run_sql db "SELECT v, k FROM nums ORDER BY v DESC" in
  let probe ~limit ~offset =
    let sql =
      Printf.sprintf "SELECT v, k FROM nums ORDER BY v DESC LIMIT %d OFFSET %d"
        limit offset
    in
    check
      Alcotest.(list string)
      (Printf.sprintf "limit %d offset %d = sorted prefix" limit offset)
      (take limit (drop offset full))
      (run_sql db sql)
  in
  probe ~limit:25 ~offset:0;
  probe ~limit:25 ~offset:5;
  probe ~limit:1 ~offset:0;
  probe ~limit:5000 ~offset:0;
  probe ~limit:10 ~offset:2995;
  (* [limit + offset] would wrap negative unless saturated *)
  probe ~limit:max_int ~offset:1;
  check Alcotest.(list string) "limit 0" []
    (run_sql db "SELECT v, k FROM nums ORDER BY v DESC LIMIT 0")

(* The top-k heap grows with the rows it sees, not to the LIMIT: a
   LIMIT far beyond a small input returns every row, in order. *)
let test_topk_huge_limit () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE t (a INT)");
  ignore (Db.exec db "INSERT INTO t VALUES (3), (1), (2)");
  List.iter
    (fun limit ->
      check Alcotest.(list string)
        (Printf.sprintf "limit %d" limit)
        [ "1"; "2"; "3" ]
        (run_sql db (Printf.sprintf "SELECT a FROM t ORDER BY a LIMIT %d" limit)))
    [ 3; 2_000_000_000; max_int ];
  check Alcotest.(list string) "huge limit with an offset" [ "2"; "3" ]
    (run_sql db (Printf.sprintf "SELECT a FROM t ORDER BY a LIMIT %d OFFSET 1" max_int))

let suite =
  [ Alcotest.test_case "pool sizing from env" `Quick test_resolve_size;
    Alcotest.test_case "pool size override" `Quick test_set_size;
    Alcotest.test_case "parallel scan + filter" `Quick test_parallel_scan_filter;
    Alcotest.test_case "parallel aggregate merge" `Quick test_parallel_aggregate;
    Alcotest.test_case "partitioned grouping" `Quick test_partitioned_grouping;
    Alcotest.test_case "float SUM/AVG bit-identical" `Quick test_float_sums_exact;
    Alcotest.test_case "parallel DISTINCT aggregates" `Quick
      test_distinct_aggregates;
    Alcotest.test_case "parallel blade aggregates" `Quick test_blade_aggregates;
    Alcotest.test_case "parallel aggregate error = sequential" `Quick
      test_aggregate_error_matches;
    Alcotest.test_case "parallel hash join" `Quick test_parallel_join;
    Alcotest.test_case "hash-join build: keys, NULLs, duplicates, sides" `Quick
      test_join_build;
    Alcotest.test_case "top-k = full sort prefix" `Quick
      test_topk_matches_full_sort;
    Alcotest.test_case "top-k LIMIT beyond the input" `Quick test_topk_huge_limit ]
