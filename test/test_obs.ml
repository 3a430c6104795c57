(* Observability: metrics registry, tracing, EXPLAIN ANALYZE, STATS,
   slow-query log, and the wire protocol's M request (DESIGN.md §9).

   Metrics are process-wide, so every assertion on a shared counter is a
   before/after delta, never an absolute value. *)

open Tip_storage
module Db = Tip_engine.Database
module Metrics = Tip_obs.Metrics
module Trace = Tip_obs.Trace

(* --- registry ------------------------------------------------------------- *)

let check_counters () =
  let c = Metrics.counter "test_obs_c" in
  Alcotest.(check int) "fresh counter" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr + add" 42 (Metrics.counter_value c);
  (* registration is idempotent: the same name is the same counter *)
  let c' = Metrics.counter "test_obs_c" in
  Metrics.incr c';
  Alcotest.(check int) "same underlying metric" 43 (Metrics.counter_value c);
  (* a kind clash is a programming error *)
  (match Metrics.gauge "test_obs_c" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash must raise");
  (* disabled registries drop writes *)
  Metrics.set_enabled false;
  Metrics.add c 1000;
  Metrics.set_enabled true;
  Alcotest.(check int) "disabled writes dropped" 43 (Metrics.counter_value c)

let check_gauges () =
  let g = Metrics.gauge "test_obs_g" in
  Metrics.gauge_set g 7;
  Metrics.gauge_add g 5;
  Metrics.gauge_add g (-2);
  Alcotest.(check int) "set/add/sub" 10 (Metrics.gauge_value g)

let check_histograms () =
  let h = Metrics.histogram "test_obs_h" in
  (* one per decade bucket: 1us, 10us, and the +inf overflow *)
  Metrics.observe h 500;
  Metrics.observe h 5_000;
  Metrics.observe h 20_000_000_000;
  Alcotest.(check int) "count" 3 (Metrics.histogram_count h);
  Alcotest.(check int) "sum" 20_000_005_500 (Metrics.histogram_sum h);
  let buckets = Metrics.histogram_buckets h in
  Alcotest.(check int) "labels match buckets"
    (Array.length Metrics.bucket_labels)
    (Array.length buckets);
  Alcotest.(check int) "le 1us" 1 buckets.(0);
  Alcotest.(check int) "le 10us cumulative" 2 buckets.(1);
  Alcotest.(check int) "inf holds everything" 3
    buckets.(Array.length buckets - 1)

let check_exposition () =
  ignore (Metrics.counter "test_obs_c");
  ignore (Metrics.histogram "test_obs_h");
  let samples = Metrics.samples () in
  let find name =
    List.find_opt (fun s -> s.Metrics.s_name = name) samples
  in
  (match find "test_obs_c" with
  | Some { Metrics.s_kind = "counter"; s_value; _ } ->
    Alcotest.(check int) "sample value" 43 s_value
  | _ -> Alcotest.fail "counter sample missing");
  Alcotest.(check bool) "histogram flattens to _count" true
    (Option.is_some (find "test_obs_h_count"));
  (* metrics come out sorted by name (histogram buckets expand in bucket
     order, so only compare the scalar rows) *)
  let names =
    List.filter_map
      (fun s ->
        if s.Metrics.s_kind = "counter" then Some s.Metrics.s_name else None)
      samples
  in
  Alcotest.(check bool) "samples sorted" true
    (names = List.sort compare names);
  let dump = Metrics.dump_text () in
  let has needle =
    try
      ignore (Str.search_forward (Str.regexp_string needle) dump 0);
      true
    with Not_found -> false
  in
  Alcotest.(check bool) "dump has TYPE line" true
    (has "# TYPE tip_test_obs_c counter");
  Alcotest.(check bool) "dump has value line" true (has "tip_test_obs_c 43");
  Alcotest.(check bool) "dump has histogram buckets" true
    (has "tip_test_obs_h_bucket{le=")

(* --- cross-domain merge ---------------------------------------------------- *)

let check_cross_domain_merge () =
  let c = Metrics.counter "test_obs_sharded" in
  let before = Metrics.counter_value c in
  (* writers on four domains land on different shards; the read must
     merge all of them *)
  List.iter Domain.join
    (List.init 4 (fun _ ->
         Domain.spawn (fun () ->
             for _ = 1 to 8 do
               Metrics.add c 1_000
             done)));
  Alcotest.(check int) "all shards merged" (before + 32_000)
    (Metrics.counter_value c)

(* --- trace spans ------------------------------------------------------------ *)

let check_span_tree () =
  let tr = Trace.start "statement" in
  Trace.annotate tr "now" "1999-10-15";
  let x =
    Trace.with_span tr "plan" (fun () ->
        Trace.with_span tr "bind" (fun () -> ());
        17)
  in
  Alcotest.(check int) "with_span returns the thunk's value" 17 x;
  Trace.with_span tr "execute" (fun () -> ());
  let root = Trace.finish tr in
  Alcotest.(check string) "root name" "statement" root.Trace.sp_name;
  Alcotest.(check (list string)) "children in start order" [ "plan"; "execute" ]
    (List.map (fun s -> s.Trace.sp_name) (Trace.children root));
  (match Trace.find_child root "plan" with
  | Some plan ->
    Alcotest.(check (list string)) "nested child" [ "bind" ]
      (List.map (fun s -> s.Trace.sp_name) (Trace.children plan))
  | None -> Alcotest.fail "plan span missing");
  Alcotest.(check bool) "root annotated" true
    (List.mem_assoc "now" root.Trace.sp_attrs);
  let rendered = Trace.render root in
  Alcotest.(check bool) "render shows the tree" true
    (try
       ignore (Str.search_forward (Str.regexp "statement (.*now=1999-10-15") rendered 0);
       ignore (Str.search_forward (Str.regexp "^  plan (") rendered 0);
       true
     with Not_found -> false)

(* --- EXPLAIN ANALYZE --------------------------------------------------------- *)

let normalize text =
  let text = Str.global_replace (Str.regexp "time=[0-9.]+ ms") "time=T" text in
  Str.global_replace
    (Str.regexp "plan [0-9.]+ ms, execute [0-9.]+ ms")
    "plan T, execute T" text

let coalescing_join_db () =
  let db = Tip_workload.Medical.demo_database () in
  ignore (Db.exec db "CREATE TABLE physician (name CHAR(20), dept CHAR(10))");
  ignore
    (Db.exec db
       "INSERT INTO physician VALUES ('Dr.Pepper', 'cardio'), ('Dr.No', \
        'gp'), ('Dr.Who', 'tardis')");
  ignore (Db.exec db "SET NOW = '1999-10-15'");
  db

let analyze_sql =
  "EXPLAIN ANALYZE SELECT p.patient, length(group_union(p.valid))::INT FROM \
   prescription p, physician d WHERE p.doctor = d.name GROUP BY p.patient"

let check_explain_analyze_golden () =
  let db = coalescing_join_db () in
  match Db.exec db analyze_sql with
  | Db.Message text ->
    Alcotest.(check string) "normalized plan tree"
      "Project [patient, length(group_union(p.valid))::INT] (actual rows=3 \
       time=T)\n\
      \  Aggregate keys=[p.patient] aggs=[group_union(p.valid)] (actual \
       rows=3 time=T)\n\
      \    HashJoin (p.doctor = d.name) (actual rows=5 time=T)\n\
      \      SeqScan prescription (actual rows=5 time=T)\n\
      \      SeqScan physician (actual rows=3 time=T)\n\n\
       Phases: plan T, execute T\n\
       Rows: 3\n\
       NOW: 1999-10-15"
      (normalize text)
  | r -> Alcotest.failf "expected a message, got %s" (Db.render_result r)

let check_explain_analyze_rejects_dml () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE t (a INT)");
  match Db.exec db "EXPLAIN ANALYZE INSERT INTO t VALUES (1)" with
  | exception Db.Error msg ->
    Alcotest.(check bool) "says SELECT-only" true
      (try
         ignore (Str.search_forward (Str.regexp_string "SELECT") msg 0);
         true
       with Not_found -> false)
  | r -> Alcotest.failf "expected an error, got %s" (Db.render_result r)

(* --- STATS / SHOW METRICS ------------------------------------------------------ *)

let stats_value db name =
  let rows = Db.rows_exn (Db.exec db "STATS") in
  match
    List.find_opt
      (fun row ->
        match row.(0) with Value.Str n -> n = name | _ -> false)
      rows
  with
  | Some row -> (match row.(2) with Value.Int v -> v | _ -> -1)
  | None -> Alcotest.failf "metric %s missing from STATS" name

let check_stats_statement () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tip_obs_stats_%d" (Unix.getpid ()))
  in
  let db, _ = Db.open_durable ~sync:Wal.Always ~dir () in
  Fun.protect
    ~finally:(fun () ->
      Db.close_durable db;
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      ignore (Db.exec db "CREATE TABLE s (k INT, g INT)");
      let fsyncs0 = stats_value db "wal_fsyncs_total" in
      let queries0 = stats_value db "exec_queries_total" in
      for i = 0 to 99 do
        ignore
          (Db.exec db (Printf.sprintf "INSERT INTO s VALUES (%d, %d)" i (i mod 4)))
      done;
      ignore (Db.exec db "SELECT g, COUNT(*) FROM s GROUP BY g");
      Alcotest.(check bool) "WAL fsyncs counted" true
        (stats_value db "wal_fsyncs_total" > fsyncs0);
      Alcotest.(check bool) "queries counted" true
        (stats_value db "exec_queries_total" > queries0);
      (* the alias returns the same registry *)
      let names result =
        List.filter_map
          (fun row ->
            match row.(0) with Value.Str n -> Some n | _ -> None)
          (Db.rows_exn result)
      in
      Alcotest.(check (list string)) "SHOW METRICS is STATS"
        (names (Db.exec db "STATS"))
        (names (Db.exec db "SHOW METRICS")))

(* --- server: slow-query log and the M request ----------------------------------- *)

let check_server_observability () =
  let captured = ref [] in
  Tip_obs.Log_sink.set_sink (fun line -> captured := line :: !captured);
  Fun.protect
    ~finally:(fun () ->
      Tip_obs.Log_sink.set_sink (fun line ->
          output_string stderr (line ^ "\n");
          flush stderr))
    (fun () ->
      let db = Tip_workload.Medical.demo_database () in
      let server = Tip_server.Server.listen ~port:0 ~slow_ms:0.0 db in
      Tip_server.Server.serve_in_background server;
      let c =
        Tip_server.Remote.connect ~port:(Tip_server.Server.port server) ()
      in
      let before = stats_value db "server_statements_total" in
      (match Tip_server.Remote.execute c "SELECT COUNT(*) FROM Prescription" with
      | Db.Rows { rows = [ [| Value.Int 5 |] ]; _ } -> ()
      | r -> Alcotest.failf "unexpected result: %s" (Db.render_result r));
      (* every statement clears a 0ms slow threshold *)
      Alcotest.(check bool) "slow-query log fired" true
        (List.exists
           (fun line ->
             try
               ignore
                 (Str.search_forward
                    (Str.regexp "SLOW [0-9.]+ ms rows=1 stmt=SELECT COUNT")
                    line 0);
               true
             with Not_found -> false)
           !captured);
      (* the M request returns the same registry the engine sees *)
      let dump = Tip_server.Remote.metrics c in
      let has needle =
        try
          ignore (Str.search_forward (Str.regexp_string needle) dump 0);
          true
        with Not_found -> false
      in
      Alcotest.(check bool) "wire dump has server counters" true
        (has "tip_server_statements_total");
      Alcotest.(check bool) "wire dump has engine counters" true
        (has "tip_engine_statements_total");
      Alcotest.(check bool) "wire statement counted" true
        (stats_value db "server_statements_total" > before);
      Tip_server.Remote.close c;
      Tip_server.Server.stop server)

(* --- reset ----------------------------------------------------------------------- *)

let check_reset_all () =
  let c = Metrics.counter "test_obs_reset" in
  Metrics.add c 5;
  Metrics.reset_all ();
  Alcotest.(check int) "reset zeroes counters" 0 (Metrics.counter_value c)

let suite =
  [ Alcotest.test_case "registry counters" `Quick check_counters;
    Alcotest.test_case "registry gauges" `Quick check_gauges;
    Alcotest.test_case "registry histograms" `Quick check_histograms;
    Alcotest.test_case "exposition" `Quick check_exposition;
    Alcotest.test_case "cross-domain merge" `Quick check_cross_domain_merge;
    Alcotest.test_case "span tree" `Quick check_span_tree;
    Alcotest.test_case "explain analyze golden" `Quick
      check_explain_analyze_golden;
    Alcotest.test_case "explain analyze rejects DML" `Quick
      check_explain_analyze_rejects_dml;
    Alcotest.test_case "STATS and SHOW METRICS" `Quick check_stats_statement;
    Alcotest.test_case "slow-query log and M request" `Quick
      check_server_observability;
    Alcotest.test_case "reset_all" `Quick check_reset_all ]
