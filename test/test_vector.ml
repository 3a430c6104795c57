(* Chunk-at-a-time execution and the cost-based temporal planner: a
   differential fuzz of the executor against the reference evaluator
   (test/plan_reference.ml) over the engine-fuzz generator,
   selection-vector edge cases at chunk boundaries, the fused overlaps
   kernel, ANALYZE histogram math, and the stats-driven access-path /
   build-side choices. *)

open Tip_storage
module Db = Tip_engine.Database
module Executor = Tip_engine.Executor
module Ast = Tip_sql.Ast

let check = Alcotest.check

let run_sql db sql = Plan_reference.show_rows (Db.rows_exn (Db.exec db sql))

(* --- Selection-vector edge cases -------------------------------------------- *)

(* 2500 rows: the 1024-row chunking crosses two chunk boundaries and
   ends with a partial chunk. *)
let edge_db =
  lazy
    (let db = Db.create () in
     ignore (Db.exec db "CREATE TABLE nums (k INT, g INT, v INT)");
     let table = Catalog.table_exn (Db.catalog db) "nums" in
     for i = 0 to 2499 do
       let v = if i mod 13 = 0 then Value.Null else Value.Int (i mod 89) in
       ignore (Table.insert table [| Value.Int i; Value.Int (i mod 5); v |])
     done;
     db)

let test_selection_edges () =
  let db = Lazy.force edge_db in
  check Alcotest.int "chunk size is what the cases below assume" 1024
    Executor.chunk_size;
  Plan_reference.check db "all-pass filter" "SELECT k FROM nums WHERE k >= 0";
  Plan_reference.check db "all-fail filter" "SELECT k FROM nums WHERE k < 0";
  Plan_reference.check db "sparse filter"
    "SELECT k, v FROM nums WHERE v = 42";
  Plan_reference.check db "null-heavy predicate"
    "SELECT k FROM nums WHERE v > 50";
  Plan_reference.check db "fused conjunction"
    "SELECT k FROM nums WHERE v > 10 AND g = 3 AND k < 2000";
  (* LIMITs straddling chunk boundaries stop the scan mid-chunk. *)
  List.iter
    (fun (limit, offset) ->
      Plan_reference.check db
        (Printf.sprintf "limit %d offset %d" limit offset)
        (Printf.sprintf "SELECT k FROM nums LIMIT %d OFFSET %d" limit offset))
    [ (1023, 0); (1024, 0); (1025, 0); (2048, 1); (100, 1020); (5000, 0) ];
  (* Absolute spot checks, so the executor and the reference being wrong
     together would show. *)
  check Alcotest.(list string) "count" [ "2500" ]
    (run_sql db "SELECT COUNT(*) FROM nums");
  check Alcotest.(list string) "empty result is empty" []
    (run_sql db "SELECT k FROM nums WHERE k < 0")

let test_batch_join_aggregate () =
  let db = Lazy.force edge_db in
  ignore (Db.exec db "CREATE TABLE lk (g INT, label CHAR(8))");
  (match Catalog.find_table (Db.catalog db) "lk" with
  | Some lk when Table.row_count lk = 0 ->
    for g = 0 to 3 do
      ignore
        (Table.insert lk [| Value.Int g; Value.Str (Printf.sprintf "g%d" g) |])
    done
  | _ -> ());
  Plan_reference.check db "hash join"
    "SELECT nums.k, lk.label FROM nums, lk WHERE nums.g = lk.g AND nums.k < 1500";
  Plan_reference.check db "join then aggregate"
    "SELECT lk.label, COUNT(*), SUM(nums.v) FROM nums, lk \
     WHERE nums.g = lk.g GROUP BY lk.label";
  Plan_reference.check db "grouped aggregate over batch scan"
    "SELECT g, COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), AVG(v) \
     FROM nums GROUP BY g"

(* --- Batched temporal kernels ------------------------------------------------ *)

(* Elements exercising every overlaps-kernel branch: single finite
   periods (the fast path), multi-period and NOW-relative elements
   (per-row fallback), and NULLs (dropped). *)
let temporal_db =
  lazy
    (let db = Tip_blade.Blade.create_database () in
     ignore (Db.exec db "SET NOW = '1999-10-15'");
     ignore (Db.exec db "CREATE TABLE ev (id INT, valid Element)");
     for i = 0 to 399 do
       let m = 1 + (i mod 12) in
       let sql =
         if i mod 31 = 30 then
           Printf.sprintf "INSERT INTO ev VALUES (%d, NULL)" i
         else if i mod 17 = 16 then
           Printf.sprintf
             "INSERT INTO ev VALUES (%d, '{[1999-%02d-01, 1999-%02d-05], \
              [1999-%02d-20, 1999-%02d-25]}')"
             i m m m m
         else if i mod 23 = 22 then
           Printf.sprintf "INSERT INTO ev VALUES (%d, '{[1999-%02d-01, NOW]}')" i m
         else
           Printf.sprintf
             "INSERT INTO ev VALUES (%d, '{[1999-%02d-01, 1999-%02d-10]}')" i m m
       in
       ignore (Db.exec db sql)
     done;
     (* Periods, where [overlaps] is the strict Allen relation; the first
        row is NULL. *)
     ignore (Db.exec db "CREATE TABLE pv (id INT, p Period)");
     for i = 0 to 59 do
       let m = 1 + (i mod 12) in
       ignore
         (Db.exec db
            (if i mod 13 = 0 then Printf.sprintf "INSERT INTO pv VALUES (%d, NULL)" i
             else
               Printf.sprintf "INSERT INTO pv VALUES (%d, '[1999-%02d-%02d, 1999-%02d-28]')"
                 i m (1 + (i mod 20)) m))
     done;
     db)

let test_batched_overlaps () =
  let db = Lazy.force temporal_db in
  Plan_reference.check db "overlap filter"
    "SELECT id FROM ev WHERE overlaps(valid, '{[1999-03-01, 1999-03-31]}')";
  Plan_reference.check db "narrow window"
    "SELECT id FROM ev WHERE overlaps(valid, '{[1999-06-21, 1999-06-22]}')";
  Plan_reference.check db "window before all data"
    "SELECT id FROM ev WHERE overlaps(valid, '{[1990-01-01, 1990-12-31]}')";
  Plan_reference.check db "overlaps AND residual comparison"
    "SELECT id FROM ev WHERE overlaps(valid, '{[1999-05-01, 1999-07-31]}') \
     AND id > 40";
  Plan_reference.check db "temporal self-join"
    "SELECT e1.id, e2.id FROM ev e1, ev e2 \
     WHERE e1.id = e2.id AND overlaps(e1.valid, e2.valid)";
  Plan_reference.check db "period overlaps a bare literal"
    "SELECT id FROM pv WHERE overlaps(p, '[1999-03-10, 1999-04-15]')";
  Plan_reference.check db "bare literal overlaps a period"
    "SELECT id FROM pv WHERE overlaps('[1999-06-10, 1999-07-15]', p)"

(* --- Differential fuzz -------------------------------------------------------- *)

(* Random queries from the engine-fuzz generator, executed and
   evaluated by the reference: both outcomes, rows or error, must match
   exactly. *)
let prop_matches_reference =
  QCheck.Test.make ~name:"executor = reference" ~count:500
    Test_engine_fuzz.query_arb (fun q ->
      let db = Lazy.force Test_engine_fuzz.db in
      let stmt = Ast.Select q in
      let want = Plan_reference.expected db stmt in
      let got = Plan_reference.executed db stmt in
      want = got
      || QCheck.Test.fail_reportf "reference %s\nexecutor %s"
           (Plan_reference.show_outcome want) (Plan_reference.show_outcome got))

(* --- ANALYZE histogram math --------------------------------------------------- *)

let test_histogram_math () =
  let h = Stats.build_histogram ~buckets:4 (List.init 100 (fun i -> i)) in
  check Alcotest.int "lo" 0 h.Stats.h_lo;
  check Alcotest.int "width = ceil(span/buckets)" 25 h.Stats.h_width;
  check Alcotest.(array int) "equi-width counts" [| 25; 25; 25; 25 |]
    h.Stats.h_counts;
  check Alcotest.int "total" 100 (Stats.total_count h);
  let close msg expected actual =
    if Float.abs (expected -. actual) > 1e-9 then
      Alcotest.failf "%s: expected %f, got %f" msg expected actual
  in
  close "full window" 1.0 (Stats.fraction_in_window h ~lo:0 ~hi:99);
  close "half window" 0.5 (Stats.fraction_in_window h ~lo:0 ~hi:49);
  close "one bucket" 0.25 (Stats.fraction_in_window h ~lo:25 ~hi:49);
  close "sub-bucket interpolates" 0.05 (Stats.fraction_in_window h ~lo:0 ~hi:4);
  close "disjoint window" 0.0 (Stats.fraction_in_window h ~lo:200 ~hi:300);
  close "inverted window" 0.0 (Stats.fraction_in_window h ~lo:50 ~hi:10);
  let empty = Stats.build_histogram ~buckets:4 [] in
  close "empty histogram" 0.0 (Stats.fraction_in_window empty ~lo:0 ~hi:100);
  (* single value: width floors at 1, everything lands in bucket 0 *)
  let point = Stats.build_histogram ~buckets:8 [ 7; 7; 7 ] in
  check Alcotest.int "point width" 1 point.Stats.h_width;
  check Alcotest.int "point bucket" 3 point.Stats.h_counts.(0)

let test_overlap_selectivity () =
  let close msg expected actual =
    if Float.abs (expected -. actual) > 1e-9 then
      Alcotest.failf "%s: expected %f, got %f" msg expected actual
  in
  (* 100 unit-length periods starting at 0, 10, ..., 990. *)
  let pairs = List.init 100 (fun i -> (i * 10, 1)) in
  let cs =
    Stats.build_col_stats ~column:0 ~buckets:10 ~nonnull:100 ~unbounded:0 pairs
  in
  close "everything" 1.0 (Stats.overlap_selectivity cs ~lo:0 ~hi:1000);
  (* Out-of-histogram windows clamp to a small epsilon, never exactly 0:
     a zero estimate would make the planner treat any index probe as
     free and mis-cost joins against it. *)
  close "nothing near the window clamps to epsilon" Stats.selectivity_epsilon
    (Stats.overlap_selectivity cs ~lo:5000 ~hi:6000);
  let mid = Stats.overlap_selectivity cs ~lo:0 ~hi:490 in
  if mid < 0.4 || mid > 0.6 then
    Alcotest.failf "half-range selectivity ~0.5, got %f" mid;
  (* Unbounded periods always count as overlapping. *)
  let cs_unb =
    Stats.build_col_stats ~column:0 ~buckets:10 ~nonnull:100 ~unbounded:50 pairs
  in
  let s = Stats.overlap_selectivity cs_unb ~lo:5000 ~hi:6000 in
  close "unbounded floor" (1.0 /. 3.0) s;
  (* No observed periods: no information, assume everything matches. *)
  let cs_empty =
    Stats.build_col_stats ~column:0 ~buckets:10 ~nonnull:0 ~unbounded:0 []
  in
  close "no data is conservative" 1.0
    (Stats.overlap_selectivity cs_empty ~lo:0 ~hi:1)

(* --- Cost-based planning ------------------------------------------------------ *)

let contains hay needle =
  try
    ignore (Str.search_forward (Str.regexp_string needle) hay 0);
    true
  with Not_found -> false

let explain db sql =
  match Db.exec db ("EXPLAIN " ^ sql) with
  | Db.Message m -> m
  | _ -> Alcotest.fail "expected plan text"

let want db sql needles =
  let plan = explain db sql in
  List.iter
    (fun needle ->
      if not (contains plan needle) then
        Alcotest.failf "plan for %s should contain %s:\n%s" sql needle plan)
    needles

let reject db sql needles =
  let plan = explain db sql in
  List.iter
    (fun needle ->
      if contains plan needle then
        Alcotest.failf "plan for %s should not contain %s:\n%s" sql needle plan)
    needles

let cost_db () =
  let db = Tip_blade.Blade.create_database () in
  ignore (Db.exec db "SET NOW = '1999-10-15'");
  ignore (Db.exec db "CREATE TABLE ev (id INT, valid Element)");
  ignore (Db.exec db "CREATE INDEX ev_valid ON ev (valid) USING INTERVAL");
  for i = 0 to 199 do
    let m = 1 + (i mod 12) in
    ignore
      (Db.exec db
         (Printf.sprintf
            "INSERT INTO ev VALUES (%d, '{[1999-%02d-01, 1999-%02d-10]}')" i m m))
  done;
  db

let narrow = "SELECT id FROM ev WHERE overlaps(valid, '{[1999-03-01, 1999-03-31]}')"
let wide = "SELECT id FROM ev WHERE overlaps(valid, '{[1998-01-01, 2000-12-31]}')"

let test_cost_access_path () =
  let db = cost_db () in
  (* Without statistics the static preference order stands and no
     estimates are printed. *)
  want db narrow [ "IntervalScan ev" ];
  reject db narrow [ "est rows=" ];
  want db wide [ "IntervalScan ev" ];
  let narrow_rows = run_sql db (narrow ^ " ORDER BY id") in
  let wide_rows = run_sql db (wide ^ " ORDER BY id") in
  (match Db.exec db "ANALYZE ev" with
  | Db.Message m ->
    check Alcotest.bool "analyze message" true (contains m "ANALYZE complete")
  | _ -> Alcotest.fail "expected message");
  (* A selective window keeps the interval index and gains an estimate;
     a window matching everything falls back to the plain scan. *)
  want db narrow [ "IntervalScan ev"; "est rows=" ];
  want db wide [ "SeqScan ev"; "interval probe rejected" ];
  reject db wide [ "IntervalScan" ];
  (* The cost decision must not change answers. *)
  check Alcotest.(list string) "narrow answers unchanged" narrow_rows
    (run_sql db (narrow ^ " ORDER BY id"));
  check Alcotest.(list string) "wide answers unchanged" wide_rows
    (run_sql db (wide ^ " ORDER BY id"));
  Plan_reference.check db "cost-planned query" narrow;
  (* ANALYZE of a missing table fails cleanly. *)
  match Db.exec db "ANALYZE nope" with
  | exception _ -> ()
  | _ -> Alcotest.fail "ANALYZE nope should fail"

let test_cost_build_side () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE small (g INT, label CHAR(8))");
  ignore (Db.exec db "CREATE TABLE big (k INT, g INT)");
  let small = Catalog.table_exn (Db.catalog db) "small" in
  let big = Catalog.table_exn (Db.catalog db) "big" in
  for g = 0 to 4 do
    ignore
      (Table.insert small [| Value.Int g; Value.Str (Printf.sprintf "g%d" g) |])
  done;
  for i = 0 to 499 do
    ignore (Table.insert big [| Value.Int i; Value.Int (i mod 5) |])
  done;
  let join = "SELECT small.label, big.k FROM small, big WHERE small.g = big.g" in
  let flipped =
    "SELECT small.label, big.k FROM big, small WHERE small.g = big.g"
  in
  (* No stats: historical build-right default, no annotation. *)
  reject db join [ "build=" ];
  let before = run_sql db (join ^ " ORDER BY big.k") in
  ignore (Db.exec db "ANALYZE");
  (* The estimated-smaller side becomes the build side. *)
  want db join [ "HashJoin"; "build=left"; "est left=5 right=500" ];
  want db flipped [ "HashJoin"; "build=right" ];
  check Alcotest.(list string) "build-side choice keeps answers" before
    (run_sql db (join ^ " ORDER BY big.k"));
  Plan_reference.check db "cost-planned join" join;
  (* tip_stat_tables surfaces the ANALYZE state. *)
  match
    Db.rows_exn
      (Db.exec db
         "SELECT last_analyzed, histogram_buckets FROM tip_stat_tables \
          WHERE table_name = 'small'")
  with
  | [ [| analyzed; buckets |] ] ->
    check Alcotest.bool "last_analyzed set" true (analyzed <> Value.Null);
    check Alcotest.bool "bucket count recorded" true
      (match buckets with Value.Int n -> n > 0 | _ -> false)
  | _ -> Alcotest.fail "expected one tip_stat_tables row for small"

(* --- The overlaps kernel: the routine as oracle, and its allocation -------- *)

module Expr_eval = Tip_engine.Expr_eval
module Values = Tip_blade.Values
module Chronon = Tip_core.Chronon
module Span = Tip_core.Span
module Instant = Tip_core.Instant
module Period = Tip_core.Period
module Element = Tip_core.Element

let kernel_now = Chronon.of_ymd 1999 10 15
let day d = Chronon.add (Chronon.of_ymd 1999 1 1) (Span.of_days d)

(* Multi-period elements written out of order, with empty [b, a]
   periods and NOW-relative endpoints mixed in. *)
let random_element st =
  let period () =
    let a = Random.State.int st 365 in
    match Random.State.int st 10 with
    | 0 -> Period.of_chronons (day (a + 5)) (day a)
    | 1 -> Period.of_instants (Instant.of_chronon (day a)) Instant.now
    | 2 ->
      Period.of_instants
        (Instant.now_minus (Span.of_days (Random.State.int st 400)))
        (Instant.of_chronon (day a))
    | _ -> Period.of_chronons (day a) (day (a + Random.State.int st 30))
  in
  Element.of_periods (List.init (1 + Random.State.int st 3) (fun _ -> period ()))

type kernel_row = {
  id : int;
  a : Element.t option;
  b : Element.t option;
  tag : string option;
}

(* 600 rows, NULLs in every column. *)
let kernel_rows =
  lazy
    (let st = Random.State.make [| 12 |] in
     let maybe f = if Random.State.int st 15 = 0 then None else Some (f ()) in
     List.init 600 (fun id ->
         let a = maybe (fun () -> random_element st) in
         let b = maybe (fun () -> random_element st) in
         let tag = maybe (fun () -> Printf.sprintf "t%03d" (Random.State.int st 100)) in
         { id; a; b; tag }))

let kernel_db =
  lazy
    (let db = Tip_blade.Blade.create_database () in
     ignore (Db.exec db "SET NOW = '1999-10-15'");
     ignore (Db.exec db "CREATE TABLE kt (id INT, a Element, b Element, tag CHAR(8))");
     let table = Catalog.table_exn (Db.catalog db) "kt" in
     let cell f = function None -> Value.Null | Some x -> f x in
     List.iter
       (fun r ->
         ignore
           (Table.insert table
              [| Value.Int r.id; cell Values.element r.a; cell Values.element r.b;
                 cell (fun s -> Value.Str s) r.tag |]))
       (Lazy.force kernel_rows);
     db)

let window_text = "{[1999-03-01, 1999-03-31], [1999-08-01, 1999-08-02]}"

(* The executor and the reference must keep exactly the rows the
   routine itself accepts, computed here straight from the data. *)
let test_overlaps_kernel_oracle () =
  let db = Lazy.force kernel_db in
  let overlaps x y = Element.overlaps ~now:kernel_now x y in
  let window = Element.of_string_exn window_text in
  let recent = Element.of_string_exn "{[NOW-120, NOW]}" in
  let string_case (op, holds) =
    ( "string " ^ op,
      "tag " ^ op ^ " 't050'",
      fun r -> Option.map (fun t -> holds (String.compare t "t050")) r.tag )
  in
  let cases =
    [ ( "constant window",
        Printf.sprintf "overlaps(a, '%s'::Element)" window_text,
        fun r -> Option.map (fun a -> overlaps a window) r.a );
      ( "bare string literal",
        Printf.sprintf "overlaps(a, '%s')" window_text,
        fun r -> Option.map (fun a -> overlaps a window) r.a );
      ( "string literal on the left",
        Printf.sprintf "overlaps('%s', b)" window_text,
        fun r -> Option.map (overlaps window) r.b );
      ( "NOW-relative window",
        "overlaps(a, '{[NOW-120, NOW]}'::Element)",
        fun r -> Option.map (fun a -> overlaps a recent) r.a );
      ( "column x column",
        "overlaps(a, b)",
        fun r ->
          match r.a, r.b with Some a, Some b -> Some (overlaps a b) | _ -> None ) ]
    @ List.map string_case
        [ ("=", fun c -> c = 0); ("<>", fun c -> c <> 0); ("<", fun c -> c < 0);
          ("<=", fun c -> c <= 0); (">", fun c -> c > 0); (">=", fun c -> c >= 0) ]
  in
  List.iter
    (fun (name, pred, oracle) ->
      let sql = "SELECT id FROM kt WHERE " ^ pred in
      Plan_reference.check db name sql;
      let want =
        List.filter_map
          (fun r -> if oracle r = Some true then Some (string_of_int r.id) else None)
          (Lazy.force kernel_rows)
      in
      check Alcotest.(list string) (name ^ " = routine") want (run_sql db sql))
    cases

(* The kernel's per-row budget, over a full chunk of finite multi-period
   elements: at most one minor word per row, for a constant window and
   for two columns. *)
let test_overlaps_kernel_allocation () =
  let db = Lazy.force kernel_db in
  let st = Random.State.make [| 7 |] in
  let finite () =
    Element.of_periods
      (List.init 3 (fun _ ->
           let a = Random.State.int st 365 in
           Period.of_chronons (day (a + Random.State.int st 20)) (day (a + 20))))
  in
  let n = Executor.chunk_size in
  let pairs = Array.init n (fun _ -> (finite (), finite ())) in
  let rows = Array.map (fun (a, b) -> [| Values.element a; Values.element b |]) pairs in
  let ext = Db.extension db in
  let env =
    Expr_eval.base_env ~ext ~resolve_column:(fun _ name -> if name = "a" then 0 else 1) ()
  in
  let ctx =
    { Expr_eval.now = kernel_now; params = []; ext; token = Tip_core.Deadline.never;
      poll_tick = 0 }
  in
  let sel = Array.make n 0 in
  let window = Element.of_string_exn window_text in
  let count f = Array.fold_left (fun k (a, b) -> if f a b then k + 1 else k) 0 pairs in
  List.iter
    (fun (name, expr, expected) ->
      let kernel = Expr_eval.compile_batch env expr in
      let run () =
        for i = 0 to n - 1 do
          sel.(i) <- i
        done;
        kernel ctx rows ~sel ~n
      in
      (* the first run fills the statement-constant cache *)
      check Alcotest.int (name ^ ": survivors") expected (run ());
      let before = Gc.minor_words () in
      let survivors = run () in
      let words = Gc.minor_words () -. before in
      check Alcotest.int (name ^ ": survivors again") expected survivors;
      if words > float_of_int n then
        Alcotest.failf "%s: %.0f minor words over %d rows (budget: one per row)" name
          words n)
    [ ( "constant window",
        Ast.Call
          ( "overlaps",
            [ Ast.Column (None, "a");
              Ast.Cast (Ast.Lit (Ast.L_string window_text), "Element") ] ),
        count (fun a _ -> Element.overlaps ~now:kernel_now a window) );
      ( "bare string literal",
        Ast.Call
          ( "overlaps",
            [ Ast.Column (None, "a"); Ast.Lit (Ast.L_string window_text) ] ),
        count (fun a _ -> Element.overlaps ~now:kernel_now a window) );
      ( "column x column",
        Ast.Call ("overlaps", [ Ast.Column (None, "a"); Ast.Column (None, "b") ]),
        count (fun a b -> Element.overlaps ~now:kernel_now a b) ) ]

(* A routine call or a cast in a projection allocates little beyond its
   result: a call fills one argument array per row (three words for two
   arguments) and passes it on uncopied, and a cast resolves its target
   and its registry lookup once per call site. Measured over a chunk of
   rows, with the budget in words per row. *)
let test_call_and_cast_allocation () =
  let db = Tip_blade.Blade.create_database () in
  let ext = Db.extension db in
  Tip_engine.Extension.register_routine ext ~name:"second" ~params:[ P_int; P_int ]
    (fun ~now:_ a -> a.(1));
  let n = Executor.chunk_size in
  let rows =
    Array.init n (fun i ->
        [| Value.Int i; Value.Int (2 * i); Values.span (Span.of_seconds (60 * i)) |])
  in
  let env =
    Expr_eval.base_env ~ext
      ~resolve_column:(fun _ name -> match name with "a" -> 0 | "b" -> 1 | _ -> 2)
      ()
  in
  let ctx =
    { Expr_eval.now = kernel_now; params = []; ext; token = Tip_core.Deadline.never;
      poll_tick = 0 }
  in
  List.iter
    (fun (name, expr, expected, budget) ->
      let f = Expr_eval.compile env expr in
      let run () = Array.map (fun row -> f ctx row) rows in
      check Alcotest.bool (name ^ ": values") true (run () = expected);
      let before = Gc.minor_words () in
      for i = 0 to n - 1 do
        ignore (Sys.opaque_identity (f ctx rows.(i)))
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int n in
      if words > budget then
        Alcotest.failf "%s: %.1f minor words per row (budget: %.0f)" name words budget)
    [ ( "routine call",
        Ast.Call ("second", [ Ast.Column (None, "a"); Ast.Column (None, "b") ]),
        Array.init n (fun i -> Value.Int (2 * i)),
        3. );
      ( "cast through the registry",
        Ast.Cast (Ast.Column (None, "s"), "INT"),
        Array.init n (fun i -> Value.Int (60 * i)),
        2. ) ]

let suite =
  [ Alcotest.test_case "selection-vector edge cases" `Quick test_selection_edges;
    Alcotest.test_case "batch join + aggregate" `Quick test_batch_join_aggregate;
    Alcotest.test_case "batched overlaps kernels" `Quick test_batched_overlaps;
    Alcotest.test_case "overlaps kernel = routine" `Quick test_overlaps_kernel_oracle;
    Alcotest.test_case "overlaps kernel allocation" `Quick
      test_overlaps_kernel_allocation;
    Alcotest.test_case "routine call and cast allocation" `Quick
      test_call_and_cast_allocation;
    Alcotest.test_case "histogram math" `Quick test_histogram_math;
    Alcotest.test_case "overlap selectivity" `Quick test_overlap_selectivity;
    Alcotest.test_case "cost-chosen access path" `Quick test_cost_access_path;
    Alcotest.test_case "cost-chosen build side" `Quick test_cost_build_side;
    QCheck_alcotest.to_alcotest prop_matches_reference ]
