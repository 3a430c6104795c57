(* Grouped aggregation against the reference's own aggregates
   (test/plan_reference.ml): seeded GROUP BY statements over zero, one
   and two keys, with DISTINCT, NULL keys and arguments, empty inputs,
   HAVING, ORDER BY and a partitioned table; the blade's temporal
   aggregates over periods and NOW-relative elements under two NOWs;
   and the allocation ceiling of grouped coalescing. *)

open Tip_storage
module Db = Tip_engine.Database
module Values = Tip_blade.Values
module Chronon = Tip_core.Chronon
module Span = Tip_core.Span
module Instant = Tip_core.Instant
module Period = Tip_core.Period
module Element = Tip_core.Element

let day d = Chronon.add (Chronon.of_ymd 2019 1 1) (Span.of_days d)

(* A timestamp: one or two fixed periods, one reaching NOW, one that
   started some days before NOW, or an empty (inverted) one. *)
let random_valid st =
  let a = Random.State.int st 1000 in
  let fixed a = Period.of_chronons (day a) (day (a + Random.State.int st 60)) in
  match Random.State.int st 6 with
  | 0 -> [ Period.since (day a) ]
  | 1 ->
    [ Period.of_instants
        (Instant.now_minus (Span.of_days (Random.State.int st 90)))
        Instant.now ]
  | 2 -> [ fixed a; fixed (a + 100) ]
  | 3 -> [ Period.of_chronons (day (a + 5)) (day a) ]
  | _ -> [ fixed a ]

let schema name suffix =
  Printf.sprintf
    "CREATE TABLE %s (k INT, g INT, h CHAR(4), v INT, f FLOAT, s CHAR(4), p Period, \
     valid Element)%s"
    name suffix

(* 3,000 rows (three chunks), NULLs in every column but [k], loaded into
   a plain table [t] and into [pt], range-partitioned by year of
   [valid] with a DEFAULT partition for NULL and NOW-relative rows. *)
let db =
  lazy
    (let db = Tip_blade.Blade.create_database () in
     ignore (Db.exec db "SET NOW = '2020-06-15'");
     ignore (Db.exec db (schema "t" ""));
     ignore
       (Db.exec db
          (schema "pt"
             " PARTITION BY RANGE (valid) (PARTITION y2019 FOR VALUES FROM \
              '2019-01-01' TO '2020-01-01', PARTITION y2020 FOR VALUES FROM \
              '2020-01-01' TO '2021-01-01', PARTITION rest DEFAULT)"));
     let st = Random.State.make [| 27 |] in
     let maybe f = if Random.State.int st 9 = 0 then Value.Null else f () in
     let rows =
       List.init 3000 (fun k ->
           let periods = random_valid st in
           [ Value.Int k;
             maybe (fun () -> Value.Int (Random.State.int st 7));
             maybe (fun () -> Value.Str (Printf.sprintf "h%d" (Random.State.int st 4)));
             maybe (fun () -> Value.Int (Random.State.int st 50 - 10));
             maybe (fun () -> Value.Float (float_of_int (Random.State.int st 1000) /. 8.));
             maybe (fun () -> Value.Str (Printf.sprintf "s%02d" (Random.State.int st 30)));
             maybe (fun () -> Values.period (List.hd periods));
             maybe (fun () -> Values.element (Element.of_periods periods)) ])
     in
     let insert table row =
       ignore
         (Db.exec db
            (Printf.sprintf "INSERT INTO %s VALUES (%s)" table
               (String.concat ", "
                  (List.map
                     (function
                       | Value.Null -> "NULL"
                       | (Value.Str _ | Value.Ext _) as v ->
                         Printf.sprintf "'%s'" (Value.to_display_string v)
                       | Value.Float x -> Printf.sprintf "%.3f" x
                       | v -> Value.to_display_string v)
                     row))))
     in
     List.iter (fun row -> insert "t" row; insert "pt" row) rows;
     db)

let pick st l = List.nth l (Random.State.int st (List.length l))

(* A random grouped statement: keys, aggregates, an optional filter
   (possibly empty), HAVING and ORDER BY, over [t] or [pt]. *)
let random_query st =
  let keys = pick st [ []; [ "g" ]; [ "h" ]; [ "g"; "h" ]; [ "v % 3"; "h" ]; [ "s" ] ] in
  let aggs =
    List.init (1 + Random.State.int st 3) (fun _ ->
        pick st
          [ "COUNT(*)"; "COUNT(v)"; "SUM(v)"; "AVG(v)"; "AVG(f)"; "SUM(f)"; "MIN(s)";
            "MAX(v)"; "MIN(f)"; "MAX(h)"; "COUNT(DISTINCT v)"; "SUM(DISTINCT v % 5)";
            "COUNT(DISTINCT s)"; "AVG(DISTINCT f)" ])
  in
  let where =
    pick st [ ""; ""; " WHERE k % 5 <> 0"; " WHERE v > 20"; " WHERE k < 0" ]
  in
  let having =
    match keys with
    | [] -> ""
    | _ -> pick st [ ""; ""; " HAVING COUNT(*) > 40"; " HAVING SUM(v) IS NULL" ]
  in
  let order =
    match keys with
    | [] -> ""
    | k :: _ -> pick st [ ""; " ORDER BY " ^ k; " ORDER BY " ^ k ^ " DESC" ]
  in
  let group = match keys with [] -> "" | _ -> " GROUP BY " ^ String.concat ", " keys in
  Printf.sprintf "SELECT %s FROM %s%s%s%s%s"
    (String.concat ", " (keys @ aggs))
    (pick st [ "t"; "pt" ])
    where group having order

(* Answers and group order equal the reference's on 200 seeded
   statements, and the shapes the generator might miss are spelled
   out. *)
let test_differential () =
  let db = Lazy.force db in
  let st = Random.State.make [| 2026 |] in
  for i = 1 to 200 do
    let sql = random_query st in
    Plan_reference.check db (Printf.sprintf "statement %d: %s" i sql) sql
  done;
  List.iter
    (fun sql -> Plan_reference.check db sql sql)
    [ "SELECT COUNT(*), SUM(v), AVG(f), MIN(s), MAX(s) FROM t WHERE k < 0";
      "SELECT COUNT(*), COUNT(DISTINCT v) FROM pt WHERE k < 0";
      "SELECT g, COUNT(*) FROM t WHERE k < 0 GROUP BY g";
      "SELECT g, h, COUNT(*), SUM(v) FROM t GROUP BY g, h";
      "SELECT v, COUNT(*) FROM pt GROUP BY v ORDER BY v";
      "SELECT k, COUNT(v) FROM t GROUP BY k";
      "SELECT SUM(DISTINCT v), COUNT(DISTINCT v), COUNT(v) FROM t" ]

(* group_union, group_intersect and group_profile over elements (some
   NOW-relative, some empty) and over periods, grouped and not, under
   two NOWs: the result moves with NOW, and each statement equals the
   reference, whose blade aggregates run one instance per group. *)
let test_temporal_aggregates () =
  let db = Lazy.force db in
  let statements =
    [ "SELECT g, group_union(valid), length(group_union(valid))::INT FROM t GROUP BY g";
      "SELECT h, group_union(p) FROM pt GROUP BY h ORDER BY h";
      "SELECT g, h, group_intersect(valid) FROM t GROUP BY g, h";
      "SELECT g, max_value(group_profile(valid)) FROM t GROUP BY g";
      "SELECT group_union(valid), group_union(p), group_profile(p) FROM pt WHERE k < 300";
      "SELECT group_union(valid), group_intersect(valid) FROM t WHERE k < 0";
      "SELECT v % 4, group_union(DISTINCT p) FROM t GROUP BY v % 4" ]
  in
  let answers now =
    ignore (Db.exec db (Printf.sprintf "SET NOW = '%s'" now));
    List.map
      (fun sql ->
        Plan_reference.check db (now ^ ": " ^ sql) sql;
        Plan_reference.show_rows (Db.rows_exn (Db.exec db sql)))
      statements
  in
  let early = answers "2019-08-01" and late = answers "2021-02-01" in
  ignore (Db.exec db "SET NOW = '2020-06-15'");
  Alcotest.(check bool) "coalescing moves with NOW" false
    (List.hd early = List.hd late)

(* Grouped coalescing over the 20,000-row medical data (2,000 patients)
   allocates at most half the 969,253 minor words of the accumulator
   design it replaced, which held closures, a boxed accumulator and
   appended buffers per group. *)
let test_coalesce_allocation () =
  let db = Tip_blade.Blade.create_database () in
  Tip_workload.Medical.load_native db
    (Tip_workload.Medical.generate ~seed:1 ~patients:2000 ~prescriptions:20000 ());
  let sql = "SELECT patient, group_union(valid) FROM Prescription GROUP BY patient" in
  let words () =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Db.exec db sql));
    Gc.minor_words () -. before
  in
  ignore (words ());
  let best = List.fold_left Float.min infinity (List.init 3 (fun _ -> words ())) in
  let budget = 969_253. /. 2. in
  if best > budget then
    Alcotest.failf "grouped group_union: %.0f minor words (budget %.0f)" best budget

let suite =
  [ Alcotest.test_case "grouped aggregates = reference" `Quick test_differential;
    Alcotest.test_case "temporal aggregates under two NOWs" `Quick
      test_temporal_aggregates;
    Alcotest.test_case "grouped coalescing allocation" `Quick test_coalesce_allocation ]
