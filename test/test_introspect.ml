(* The introspection catalog (DESIGN.md §11): statement fingerprinting,
   the bounded tip_stat_statements store, percentile estimation, the
   virtual tables over embedded and wire connections, live session
   activity, and Chrome trace export. *)

open Tip_storage
module Db = Tip_engine.Database
module Lexer = Tip_sql.Lexer
module Introspect = Tip_obs.Introspect
module Metrics = Tip_obs.Metrics
module Span = Tip_obs.Span
module Log_sink = Tip_obs.Log_sink
module Server = Tip_server.Server
module Remote = Tip_server.Remote

(* --- Fingerprinting ------------------------------------------------------ *)

let check_fingerprint () =
  let cases =
    [ (* literals of every kind collapse to ? *)
      ("SELECT * FROM t WHERE a = 42", "select * from t where a = ?");
      ("SELECT * FROM t WHERE a = 7", "select * from t where a = ?");
      ("SELECT * FROM t WHERE x = 1.5", "select * from t where x = ?");
      ("SELECT * FROM t WHERE s = 'bob'", "select * from t where s = ?");
      (* host variables share the literal placeholder *)
      ("SELECT * FROM t WHERE a = :v", "select * from t where a = ?");
      (* case and whitespace normalize away *)
      ("select  *  FROM   T  where A=42", "select * from t where a = ?");
      (* quoted identifiers keep their case — they name distinct objects *)
      ("SELECT \"Weird\" FROM t", "select \"Weird\" from t") ]
  in
  List.iter
    (fun (src, want) ->
      Alcotest.(check string) src want (Lexer.fingerprint src))
    cases;
  (* structurally different statements stay distinct *)
  Alcotest.(check bool) "distinct shapes distinct" false
    (String.equal
       (Lexer.fingerprint "SELECT a FROM t")
       (Lexer.fingerprint "SELECT b FROM t"));
  (* unlexable input falls back to its trimmed raw text *)
  Alcotest.(check string) "unlexable passthrough" "SELECT 'unterminated"
    (Lexer.fingerprint "  SELECT 'unterminated  ")

(* The token walk must key every lexable text exactly as the deleted
   single-pass scanner did (test/fingerprint_reference.ml): random token
   soup, with pieces glued directly as well as through whitespace and
   comments, so token boundaries are exercised too. *)
let token_soup =
  let open QCheck.Gen in
  let piece =
    oneofl
      [ "SELECT"; "select"; "From"; "WHERE"; "a"; "T1"; "_x"; "e"; "E5";
        "0"; "42"; "007"; "1.5"; "2e10"; "3.25E-2"; "1e+5"; "'bob'";
        "'it''s'"; "''"; "'a;b -- c'"; "\"Weird\""; "\"a\"\"b\""; "\"\"";
        ":v"; ":Host_1"; "::"; "!="; "<>"; "<="; ">="; "||"; "("; ")"; ",";
        "."; ";"; "+"; "-"; "*"; "/"; "%"; "="; "<"; ">" ]
  in
  let sep =
    frequency
      [ (3, return " "); (2, return ""); (1, return "\t"); (1, return "\r\n");
        (1, return " -- note\n"); (1, return "/* c */"); (1, return "/**/") ]
  in
  list_size (int_range 0 12) (pair piece sep)
  |> map (fun l -> String.concat "" (List.map (fun (p, s) -> p ^ s) l))

let prop_fingerprint_reference =
  QCheck.Test.make ~name:"token fingerprint = reference scanner" ~count:1500
    ~max_gen:6000
    (QCheck.make ~print:(Printf.sprintf "%S") token_soup)
    (fun src ->
      match Lexer.tokenize src with
      | exception Lexer.Error _ -> QCheck.assume_fail ()
      | _ ->
        let got = Lexer.fingerprint src
        and want = Fingerprint_reference.fingerprint src in
        String.equal got want
        || QCheck.Test.fail_reportf "got %S, reference %S" got want)

(* --- Store bound / LRU eviction ------------------------------------------ *)

let record_one ?(elapsed_ns = 1_000_000) query =
  Introspect.record ~query ~elapsed_ns ~rows_returned:1 ~rows_scanned:2
    Introspect.Finished

let with_store_capacity cap f =
  let old_cap = Introspect.capacity () in
  let old_enabled = Tip_obs.Switch.on () in
  Tip_obs.Switch.set true;
  Introspect.reset ();
  Introspect.set_capacity cap;
  Fun.protect
    ~finally:(fun () ->
      Introspect.reset ();
      Introspect.set_capacity old_cap;
      Tip_obs.Switch.set old_enabled)
    f

let check_lru_eviction () =
  with_store_capacity 4 (fun () ->
      record_one "q1";
      record_one "q2";
      record_one "q3";
      record_one "q4";
      Alcotest.(check int) "at capacity" 4 (Introspect.size ());
      (* touching q1 makes q2 the least-recently-updated entry *)
      record_one "q1";
      record_one "q5";
      Alcotest.(check int) "still at capacity" 4 (Introspect.size ());
      let held =
        List.map (fun s -> s.Introspect.query) (Introspect.snapshot ())
        |> List.sort compare
      in
      Alcotest.(check (list string)) "q2 evicted" [ "q1"; "q3"; "q4"; "q5" ]
        held;
      (* the survivor kept its aggregate *)
      let q1 =
        List.find (fun s -> s.Introspect.query = "q1") (Introspect.snapshot ())
      in
      Alcotest.(check int) "q1 calls" 2 q1.Introspect.calls;
      (* shrinking the bound evicts down to it *)
      Introspect.set_capacity 2;
      Alcotest.(check int) "shrunk" 2 (Introspect.size ());
      Alcotest.(check bool) "bad capacity rejected" true
        (match Introspect.set_capacity 0 with
        | () -> false
        | exception Invalid_argument _ -> true))

let check_outcome_counts () =
  with_store_capacity 8 (fun () ->
      Introspect.record ~query:"q" ~elapsed_ns:10 ~rows_returned:3
        ~rows_scanned:30 Introspect.Finished;
      Introspect.record ~query:"q" ~elapsed_ns:20 ~rows_returned:0
        ~rows_scanned:5 Introspect.Errored;
      Introspect.record ~query:"q" ~elapsed_ns:30 ~rows_returned:0
        ~rows_scanned:7 Introspect.Cancelled;
      match Introspect.snapshot () with
      | [ s ] ->
        Alcotest.(check int) "calls" 3 s.Introspect.calls;
        Alcotest.(check int) "total" 60 s.Introspect.total_ns;
        Alcotest.(check int) "min" 10 s.Introspect.min_ns;
        Alcotest.(check int) "max" 30 s.Introspect.max_ns;
        Alcotest.(check int) "rows returned" 3 s.Introspect.rows_returned;
        Alcotest.(check int) "rows scanned" 42 s.Introspect.rows_scanned;
        Alcotest.(check int) "errors" 1 s.Introspect.errors;
        Alcotest.(check int) "cancellations" 1 s.Introspect.cancelled
      | l -> Alcotest.failf "expected one entry, got %d" (List.length l))

let check_disabled_store () =
  with_store_capacity 8 (fun () ->
      Tip_obs.Switch.set false;
      record_one "ghost";
      Alcotest.(check int) "disabled store stays empty" 0 (Introspect.size ());
      Tip_obs.Switch.set true)

(* --- Percentile estimation ----------------------------------------------- *)

let near msg want got =
  if Float.abs (want -. got) > 1e-6 *. Float.max 1.0 (Float.abs want) then
    Alcotest.failf "%s: wanted %g, got %g" msg want got

let check_percentile_math () =
  let n = Array.length Metrics.bucket_labels in
  (* empty histogram reads as zero *)
  near "empty p50" 0. (Metrics.percentile_of_buckets (Array.make n 0) 0.5);
  (* 100 samples all in (1_000, 10_000]: linear interpolation within
     the bucket *)
  let b = Array.make n 0 in
  b.(1) <- 100;
  near "p50 mid-bucket" 5_500. (Metrics.percentile_of_buckets b 0.5);
  near "p95" 9_550. (Metrics.percentile_of_buckets b 0.95);
  near "p100 clamps to bucket top" 10_000.
    (Metrics.percentile_of_buckets b 1.0);
  (* split across two buckets: 50 in (0,1000], 50 in (1_000,10_000] *)
  let b2 = Array.make n 0 in
  b2.(0) <- 50;
  b2.(1) <- 50;
  near "p25 in first bucket" 500. (Metrics.percentile_of_buckets b2 0.25);
  near "p75 in second bucket" 5_500. (Metrics.percentile_of_buckets b2 0.75);
  (* overflow bucket clamps to the last finite bound *)
  let b3 = Array.make n 0 in
  b3.(n - 1) <- 10;
  let top = float_of_int Metrics.bounds.(Array.length Metrics.bounds - 1) in
  near "overflow clamped" top (Metrics.percentile_of_buckets b3 0.99);
  (* a live histogram agrees with its raw buckets *)
  let h = Metrics.histogram "introspect_test_ns" in
  Metrics.observe h 5_000;
  Metrics.observe h 5_000;
  if Metrics.percentile h 0.5 <= 1_000. then
    Alcotest.fail "live histogram percentile should sit above 1us"

(* --- tip_stat_statements over an embedded database ----------------------- *)

let find_stat_row ~like rows =
  List.find_opt
    (fun row ->
      match row.(0) with
      | Value.Str q ->
        (try ignore (Str.search_forward (Str.regexp_string like) q 0); true
         with Not_found -> false)
      | _ -> false)
    rows

let check_stat_statements_local () =
  Introspect.reset ();
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE intro_t (a INT, s CHAR(8))");
  ignore (Db.exec db "INSERT INTO intro_t VALUES (1, 'one')");
  ignore (Db.exec db "INSERT INTO intro_t VALUES (2, 'two')");
  (* three executions differing only in literals — one fingerprint *)
  ignore (Db.exec db "SELECT * FROM intro_t WHERE a = 1");
  ignore (Db.exec db "SELECT * FROM intro_t WHERE a = 2");
  ignore (Db.exec db "SELECT * FROM intro_t WHERE a = 99");
  (* an error counts against the same store *)
  (try ignore (Db.exec db "SELECT nope FROM intro_t")
   with Db.Error _ | Tip_engine.Planner.Plan_error _ -> ());
  let r =
    Db.exec db
      "SELECT query, calls, total_ms, mean_ms, p95_ms, rows_returned, \
       rows_scanned, errors, cancellations FROM tip_stat_statements ORDER BY \
       total_ms DESC"
  in
  let rows = Db.rows_exn r in
  (match find_stat_row ~like:"select * from intro_t where a = ?" rows with
  | None -> Alcotest.fail "collapsed select row missing"
  | Some row ->
    Alcotest.(check bool) "3 calls collapse to one row" true
      (row.(1) = Value.Int 3);
    (match row.(2), row.(3), row.(4) with
    | Value.Float total, Value.Float mean, Value.Float p95 ->
      if total <= 0. then Alcotest.fail "total_ms must be positive";
      if mean <= 0. || mean > total then Alcotest.fail "mean_ms out of range";
      if p95 < 0. then Alcotest.fail "p95_ms negative"
    | _ -> Alcotest.fail "latency columns must be floats");
    Alcotest.(check bool) "rows returned counted" true
      (row.(5) = Value.Int 2);
    (match row.(6) with
    | Value.Int scanned when scanned >= 2 -> ()
    | v -> Alcotest.failf "rows_scanned: %s" (Value.to_display_string v)));
  (match find_stat_row ~like:"select nope from intro_t" rows with
  | None -> Alcotest.fail "errored statement missing from store"
  | Some row ->
    Alcotest.(check bool) "error counted" true (row.(7) = Value.Int 1));
  (* the virtual table composes with ordinary SQL *)
  let r =
    Db.exec db
      "SELECT COUNT(*) FROM tip_stat_statements WHERE calls >= 3 AND query \
       LIKE '%intro_t%'"
  in
  (match Db.rows_exn r with
  | [ [| Value.Int n |] ] when n >= 1 -> ()
  | _ -> Alcotest.fail "aggregate over tip_stat_statements");
  (* a real table shadows the virtual one *)
  ignore (Db.exec db "CREATE TABLE tip_stat_statements (x INT)");
  ignore (Db.exec db "INSERT INTO tip_stat_statements VALUES (7)");
  (match Db.rows_exn (Db.exec db "SELECT x FROM tip_stat_statements") with
  | [ [| Value.Int 7 |] ] -> ()
  | _ -> Alcotest.fail "real table must shadow the virtual table");
  ignore (Db.exec db "DROP TABLE tip_stat_statements")

let check_stat_metrics_and_tables () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE mt (a INT)");
  ignore (Db.exec db "INSERT INTO mt VALUES (1)");
  ignore (Db.exec db "SELECT * FROM mt");
  (* tip_stat_tables reflects the querying database's catalog *)
  let r =
    Db.exec db
      "SELECT table_name, row_count, scans, writes FROM tip_stat_tables \
       WHERE table_name = 'mt'"
  in
  (match Db.rows_exn r with
  | [ [| Value.Str "mt"; Value.Int 1; Value.Int scans; Value.Int 1 |] ] ->
    if scans < 1 then Alcotest.fail "scan counter not charged"
  | rows -> Alcotest.failf "tip_stat_tables: %d rows" (List.length rows));
  (* tip_stat_metrics carries percentile columns for histograms *)
  let r =
    Db.exec db
      "SELECT name, kind, p95_ms FROM tip_stat_metrics WHERE name = \
       'engine_statement_ns'"
  in
  (match Db.rows_exn r with
  | [ [| Value.Str _; Value.Str "histogram"; Value.Float p95 |] ] ->
    if p95 < 0. then Alcotest.fail "p95 negative"
  | rows ->
    Alcotest.failf "tip_stat_metrics histogram row: %d rows" (List.length rows));
  (* counters carry Null percentiles *)
  let r =
    Db.exec db
      "SELECT p95_ms FROM tip_stat_metrics WHERE name = 'engine_statements_total'"
  in
  (match Db.rows_exn r with
  | [ [| Value.Null |] ] -> ()
  | _ -> Alcotest.fail "counter percentile must be NULL")

let check_stats_like_filter () =
  let db = Db.create () in
  let names r =
    List.map
      (fun row ->
        match row.(0) with Value.Str s -> s | _ -> Alcotest.fail "name col")
      (Db.rows_exn r)
  in
  let wal = names (Db.exec db "STATS LIKE 'wal%'") in
  Alcotest.(check bool) "wal filter nonempty" true (wal <> []);
  List.iter
    (fun n ->
      if not (String.length n >= 3 && String.sub n 0 3 = "wal") then
        Alcotest.failf "non-wal metric %s leaked through the filter" n)
    wal;
  (* SHOW METRICS takes the same filter; %_ns percentile samples exist *)
  let p95 = names (Db.exec db "SHOW METRICS LIKE '%_p95_ns'") in
  Alcotest.(check bool) "histogram percentile samples exported" true
    (p95 <> []);
  let all = names (Db.exec db "STATS") in
  Alcotest.(check bool) "unfiltered is a superset" true
    (List.length all > List.length wal)

(* --- Over the wire -------------------------------------------------------- *)

let with_server ?slow_ms ?statement_timeout_ms f =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE wire_t (a INT)");
  ignore (Db.exec db "INSERT INTO wire_t VALUES (1)");
  ignore (Db.exec db "INSERT INTO wire_t VALUES (2)");
  let server = Server.listen ?slow_ms ?statement_timeout_ms ~port:0 db in
  Server.serve_in_background server;
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f db (Server.port server))

let check_stat_statements_wire () =
  Introspect.reset ();
  with_server (fun _db port ->
      let c = Remote.connect ~port () in
      ignore (Remote.execute c "SELECT * FROM wire_t WHERE a = 1");
      ignore (Remote.execute c "SELECT * FROM wire_t WHERE a = 2");
      let r =
        Remote.execute c
          "SELECT query, calls, p95_ms FROM tip_stat_statements WHERE query \
           LIKE '%wire_t where a%' ORDER BY total_ms DESC LIMIT 5"
      in
      (match r with
      | Db.Rows { rows = [ [| Value.Str q; Value.Int 2; Value.Float _ |] ]; _ }
        ->
        Alcotest.(check string) "wire fingerprint"
          "select * from wire_t where a = ?" q
      | r -> Alcotest.failf "wire stat rows: %s" (Db.render_result r));
      Remote.close c)

(* One text keys one row whichever path runs it: embedded, prepared,
   as a script, and over the wire. *)
let check_one_row_per_text () =
  Introspect.reset ();
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE paths_t (a INT)");
  ignore (Db.exec db "INSERT INTO paths_t VALUES (1)");
  let sql = "SELECT a FROM paths_t WHERE a = 1" in
  ignore (Db.exec db sql);
  let conn = Tip_client.Connection.connect_to db in
  ignore (Tip_client.Statement.execute (Tip_client.Statement.prepare conn sql));
  ignore (Db.exec_script db sql);
  let server = Server.listen ~port:0 db in
  Server.serve_in_background server;
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let c = Remote.connect ~port:(Server.port server) () in
      ignore (Remote.execute c sql);
      Remote.close c);
  match
    Db.exec db
      "SELECT query, calls FROM tip_stat_statements WHERE query LIKE \
       '%paths_t where%'"
  with
  | Db.Rows { rows = [ [| Value.Str q; Value.Int 4 |] ]; _ } ->
    Alcotest.(check string) "the text's own key"
      "select a from paths_t where a = ?" q
  | r -> Alcotest.failf "want one row with 4 calls: %s" (Db.render_result r)

let check_activity_wire () =
  with_server ~statement_timeout_ms:10_000 (fun db port ->
      let c_idle = Remote.connect ~port () in
      ignore (Remote.execute c_idle "SELECT 1");
      let c = Remote.connect ~port () in
      (* the querying session observes itself mid-statement *)
      let r =
        Remote.execute c
          "SELECT session_id, client_addr, state, query, \
           deadline_remaining_ms FROM tip_stat_activity WHERE state = \
           'active'"
      in
      (match r with
      | Db.Rows { rows = [ row ]; _ } ->
        (match row.(3) with
        | Value.Str q ->
          Alcotest.(check bool) "active row carries its own statement" true
            (try
               ignore
                 (Str.search_forward (Str.regexp_string "tip_stat_activity") q
                    0);
               true
             with Not_found -> false)
        | v -> Alcotest.failf "query column: %s" (Value.to_display_string v));
        (match row.(1) with
        | Value.Str addr ->
          Alcotest.(check bool) "client addr recorded" true
            (String.length addr > 0)
        | _ -> Alcotest.fail "client_addr column");
        (match row.(4) with
        | Value.Float ms when ms > 0. && ms <= 10_000. -> ()
        | v -> Alcotest.failf "deadline_remaining_ms: %s" (Value.to_display_string v))
      | r -> Alcotest.failf "self-observation: %s" (Db.render_result r));
      (* both sessions appear; the other one is idle with no statement *)
      let r =
        Remote.execute c
          "SELECT COUNT(*) FROM tip_stat_activity WHERE state = 'idle' AND \
           query IS NULL"
      in
      (match r with
      | Db.Rows { rows = [ [| Value.Int n |] ]; _ } when n >= 1 -> ()
      | r -> Alcotest.failf "idle sessions: %s" (Db.render_result r));
      (* a genuinely concurrent statement shows as active: watch from the
         embedded side (which does not queue on the server's lock) while
         a wire session grinds through a cross join *)
      ignore (Db.exec db "CREATE TABLE act_big (a INT)");
      let i = ref 0 in
      while !i < 2500 do
        let buf = Buffer.create 4096 in
        Buffer.add_string buf "INSERT INTO act_big VALUES ";
        for j = 0 to 199 do
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (Printf.sprintf "(%d)" (!i + j))
        done;
        ignore (Db.exec db (Buffer.contents buf));
        i := !i + 200
      done;
      let heavy =
        "SELECT COUNT(*) FROM act_big b1, act_big b2 WHERE b1.a + b2.a < -1"
      in
      let worker =
        Thread.create (fun () -> ignore (Remote.execute c heavy)) ()
      in
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec observe () =
        let r =
          Db.exec db
            "SELECT COUNT(*) FROM tip_stat_activity WHERE state = 'active' \
             AND query LIKE '%act_big%'"
        in
        match Db.rows_exn r with
        | [ [| Value.Int n |] ] when n >= 1 -> ()
        | _ ->
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "in-flight wire statement never showed as active";
          Thread.delay 0.005;
          observe ()
      in
      observe ();
      Thread.join worker;
      Remote.close c;
      Remote.close c_idle)

(* --- Trace export --------------------------------------------------------- *)

let check_chrome_trace_json () =
  let root = Span.start Span.Statement in
  Span.annotate root "now"
    (Span.Chronon (Option.get (Tip_core.Chronon.of_string "2001-06-01")));
  Span.with_ ~parent:root Span.Plan (fun () -> ());
  let execute = Span.start ~parent:root Span.Execute in
  Span.annotate execute "rows" (Span.Text "3");
  Span.stop execute;
  Span.stop root;
  let json = Span.to_chrome_json root in
  let trimmed = String.trim json in
  Alcotest.(check bool) "array brackets" true
    (String.length trimmed > 2
    && trimmed.[0] = '['
    && trimmed.[String.length trimmed - 1] = ']');
  let contains needle =
    try
      ignore (Str.search_forward (Str.regexp_string needle) json 0);
      true
    with Not_found -> false
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains needle))
    [ "\"ph\":\"X\""; "\"name\":\"statement\""; "\"name\":\"plan\"";
      "\"name\":\"execute\""; "\"pid\":1"; "\"dur\":";
      "\"now\":\"2001-06-01\""; "\"rows\":\"3\"" ];
  (* export writes one file into the configured directory *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tip_trace_test_%d" (Unix.getpid ()))
  in
  let old_dir = Span.trace_dir () in
  Span.set_trace_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      Span.set_trace_dir old_dir;
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () ->
      match Span.export_chrome root with
      | None -> Alcotest.fail "export returned no path"
      | Some path ->
        Alcotest.(check bool) "file exists" true (Sys.file_exists path);
        let ic = open_in path in
        let len = in_channel_length ic in
        let contents = really_input_string ic len in
        close_in ic;
        Alcotest.(check string) "file holds the same JSON" json contents)

let check_slow_trace_export_wire () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "tip_trace_wire_%d" (Unix.getpid ()))
  in
  let old_dir = Span.trace_dir () in
  Span.set_trace_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      Span.set_trace_dir old_dir;
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () ->
      with_server ~slow_ms:0. (fun _db port ->
          let c = Remote.connect ~port () in
          ignore (Remote.execute c "SELECT * FROM wire_t");
          Remote.close c;
          (* every statement is "slow" at threshold 0, so files appear *)
          let deadline = Unix.gettimeofday () +. 5.0 in
          let rec wait () =
            let files =
              if Sys.file_exists dir then Sys.readdir dir else [||]
            in
            if Array.length files > 0 then files
            else if Unix.gettimeofday () > deadline then
              Alcotest.fail "no trace file exported"
            else begin
              Thread.delay 0.01;
              wait ()
            end
          in
          let files = wait () in
          let path = Filename.concat dir files.(0) in
          let ic = open_in path in
          let len = in_channel_length ic in
          let contents = really_input_string ic len in
          close_in ic;
          let contents = String.trim contents in
          Alcotest.(check bool) "chrome trace shape" true
            (String.length contents > 2
            && contents.[0] = '['
            && contents.[String.length contents - 1] = ']');
          let contains needle =
            try
              ignore (Str.search_forward (Str.regexp_string needle) contents 0);
              true
            with Not_found -> false
          in
          Alcotest.(check bool) "has complete events" true
            (contains "\"ph\":\"X\"");
          Alcotest.(check bool) "has the statement root" true
            (contains "\"name\":\"statement\"")))

(* A durable INSERT's span tree: [engine] under [statement], and the
   WAL append and fsync under [engine], both as the test's own session
   sees it and as a slow wire statement exports it. *)
let check_durable_insert_span_tree () =
  Test_durability.with_dir @@ fun dir ->
  let db, _ = Db.open_durable ~sync:Wal.Always ~dir () in
  Fun.protect ~finally:(fun () -> Db.close_durable db) @@ fun () ->
  ignore (Db.exec db "CREATE TABLE st (a INT PRIMARY KEY)");
  let names sp = List.map (fun c -> Span.label (Span.kind c)) (Span.children sp) in
  let session = Span.register ~id:9102 ~kind:"test" () in
  let root =
    Fun.protect ~finally:(fun () -> Span.unregister session) @@ fun () ->
    let root = Span.start Span.Statement in
    ignore (Db.exec db "INSERT INTO st VALUES (1)");
    Span.stop root;
    root
  in
  Alcotest.(check (list string)) "engine under statement" [ "engine" ]
    (names root);
  (match Span.find_child root Span.Engine with
  | Some engine ->
    Alcotest.(check (list string)) "WAL waits under engine"
      [ "WalAppend"; "WalFsync" ] (names engine)
  | None -> Alcotest.fail "no engine span");
  Alcotest.(check bool) "NOW on the root" true
    (List.mem_assoc "now" (Span.attrs root));
  (* the exported tree of the same statement over the wire *)
  let trace_dir = Filename.concat dir "traces" in
  let old_dir = Span.trace_dir () in
  Span.set_trace_dir (Some trace_dir);
  Fun.protect ~finally:(fun () -> Span.set_trace_dir old_dir) @@ fun () ->
  let server = Server.listen ~slow_ms:0. ~port:0 db in
  Server.serve_in_background server;
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let c = Remote.connect ~port:(Server.port server) () in
  ignore (Remote.execute c "INSERT INTO st VALUES (2)");
  Remote.close c;
  let files = if Sys.file_exists trace_dir then Sys.readdir trace_dir else [||] in
  Alcotest.(check int) "one exported tree" 1 (Array.length files);
  let ic = open_in (Filename.concat trace_dir files.(0)) in
  let json = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (* events come depth first: (name, start, end) in nanoseconds, read
     exactly from the microsecond fields' three decimals: float sums
     of those fields can misorder two spans that end on the same clock
     tick *)
  let event_re =
    Str.regexp
      "\"name\":\"\\([A-Za-z]+\\)\",\"ts\":\\([0-9.]+\\),\"dur\":\\([0-9.]+\\)"
  in
  let rec events pos =
    match Str.search_forward event_re json pos with
    | exception Not_found -> []
    | _ ->
      let ns group =
        Float.to_int (Float.round (float_of_string (Str.matched_group group json) *. 1e3))
      in
      let ts = ns 2 in
      let ev = (Str.matched_group 1 json, ts, ts + ns 3) in
      ev :: events (Str.match_end ())
  in
  let evs = events 0 in
  let index name =
    let rec go i = function
      | (n, _, _) :: _ when n = name -> i
      | _ :: rest -> go (i + 1) rest
      | [] -> Alcotest.failf "%s missing from the export" name
    in
    go 0 evs
  in
  let _, s0, s1 = List.nth evs (index "engine") in
  let under_engine name =
    let _, t0, t1 = List.nth evs (index name) in
    index name > index "engine" && t0 >= s0 && t1 <= s1
  in
  Alcotest.(check int) "statement is the root" 0 (index "statement");
  Alcotest.(check bool) "root carries NOW" true
    (Str.string_match (Str.regexp ".*\"name\":\"statement\"[^}]*\"args\":{\"now\":\"") json 0);
  Alcotest.(check bool) "WalAppend under engine" true (under_engine "WalAppend");
  Alcotest.(check bool) "WalFsync under engine" true (under_engine "WalFsync")

(* --- JSON log format ------------------------------------------------------ *)

let check_json_log_format () =
  let captured = ref [] in
  Log_sink.set_sink (fun s -> captured := s :: !captured);
  let old_format = Log_sink.format () in
  Fun.protect
    ~finally:(fun () ->
      Log_sink.set_format old_format;
      Log_sink.set_sink prerr_endline)
    (fun () ->
      Log_sink.set_format Log_sink.Json;
      Log_sink.line "hello %d" 42;
      Log_sink.event ~session:7 ~event:"slow_query"
        ~text:"SLOW 1.000 ms rows=1 stmt=SELECT 1"
        [ ("ms", "1.000"); ("rows", "1"); ("stmt", "SELECT \"x\"") ];
      match !captured with
      | [ ev; line ] ->
        let contains hay needle =
          try
            ignore (Str.search_forward (Str.regexp_string needle) hay 0);
            true
          with Not_found -> false
        in
        Alcotest.(check bool) "line is a json object" true
          (String.length line > 0 && line.[0] = '{');
        Alcotest.(check bool) "line carries the message" true
          (contains line "\"message\":\"hello 42\"");
        Alcotest.(check bool) "line has a ts" true (contains line "\"ts\":");
        Alcotest.(check bool) "event object" true
          (String.length ev > 0 && ev.[0] = '{');
        List.iter
          (fun needle ->
            Alcotest.(check bool) needle true (contains ev needle))
          [ "\"event\":\"slow_query\""; "\"session\":7"; "\"ms\":\"1.000\"";
            "\"level\":\"info\"" ];
        (* embedded quotes are escaped — the object stays one line *)
        Alcotest.(check bool) "quotes escaped" true
          (contains ev "\\\"x\\\"");
        Alcotest.(check bool) "single line" true
          (not (String.contains ev '\n'));
        (* text mode keeps the historical line shape *)
        Log_sink.set_format Log_sink.Text;
        captured := [];
        Log_sink.event ~event:"slow_query"
          ~text:"SLOW 2.000 ms rows=0 stmt=SELECT 2"
          [ ("ms", "2.000") ];
        (match !captured with
        | [ text_line ] ->
          Alcotest.(check bool) "text mode emits the text verbatim" true
            (contains text_line "SLOW 2.000 ms rows=0 stmt=SELECT 2")
        | l -> Alcotest.failf "text mode lines: %d" (List.length l))
      | l -> Alcotest.failf "captured %d lines, wanted 2" (List.length l))

let suite =
  [ Alcotest.test_case "fingerprint normalization" `Quick check_fingerprint;
    QCheck_alcotest.to_alcotest prop_fingerprint_reference;
    Alcotest.test_case "store LRU eviction" `Quick check_lru_eviction;
    Alcotest.test_case "store outcome aggregation" `Quick check_outcome_counts;
    Alcotest.test_case "store disable switch" `Quick check_disabled_store;
    Alcotest.test_case "percentile interpolation" `Quick check_percentile_math;
    Alcotest.test_case "tip_stat_statements (embedded)" `Quick
      check_stat_statements_local;
    Alcotest.test_case "tip_stat_metrics / tip_stat_tables" `Quick
      check_stat_metrics_and_tables;
    Alcotest.test_case "STATS LIKE filtering" `Quick check_stats_like_filter;
    Alcotest.test_case "tip_stat_statements (wire)" `Quick
      check_stat_statements_wire;
    Alcotest.test_case "one row per text on every path" `Quick
      check_one_row_per_text;
    Alcotest.test_case "tip_stat_activity (wire)" `Quick check_activity_wire;
    Alcotest.test_case "chrome trace json" `Quick check_chrome_trace_json;
    Alcotest.test_case "slow-statement trace export (wire)" `Quick
      check_slow_trace_export_wire;
    Alcotest.test_case "durable INSERT span tree" `Quick
      check_durable_insert_span_tree;
    Alcotest.test_case "json log format" `Quick check_json_log_format ]
