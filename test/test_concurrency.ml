(* Concurrent statements (DESIGN.md §17): readers share the database
   lock, sessions run on their own domains, and every per-statement
   value (NOW, the trace, the rows-scanned tally) stays with its own
   statement. All randomness is seeded, so a failure replays. *)

open Tip_storage
module Db = Tip_engine.Database
module Server = Tip_server.Server
module Remote = Tip_server.Remote
module Domains = Tip_engine.Domains
module Chronon = Tip_core.Chronon
module Tx_clock = Tip_core.Tx_clock

let exec db sql = ignore (Db.exec db sql)

let with_server db f =
  let server = Server.listen ~port:0 db in
  Server.serve_in_background server;
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () ->
      f (Server.port server))

let with_domains n f =
  let saved = Domains.size () in
  Domains.set_size n;
  Fun.protect ~finally:(fun () -> Domains.set_size saved) f

let render_rows = function
  | Db.Rows { rows; _ } ->
    String.concat "; "
      (List.map
         (fun r ->
           String.concat ", "
             (Array.to_list (Array.map Value.to_display_string r)))
         rows)
  | r -> Db.render_result r

(* Failures seen on client threads, reported after they are joined:
   an exception on a thread would otherwise vanish. *)
let problems = Mutex.create ()

let note_problem list msg =
  Mutex.lock problems;
  list := msg :: !list;
  Mutex.unlock problems

(* A client thread's body; whatever it raises (a wire deadline included)
   becomes a problem instead of a silently dead thread. *)
let client_thread list name f =
  Thread.create
    (fun () ->
      try f ()
      with e -> note_problem list (name ^ ": " ^ Printexc.to_string e))
    ()

(* --- atomicity under concurrent readers and one writer ------------------- *)

let n_acct = 40
let window = "'{[2001-03-01, 2001-05-31]}'"

let temporal_query =
  Printf.sprintf
    "SELECT grp, COUNT(*) FROM spans WHERE overlaps(valid, %s) GROUP BY grp \
     ORDER BY grp"
    window

(* The same seeded data in any number of databases: [acct] with
   [n_acct] zero balances, and 2,000 periods in [spans] — above the
   executor's batch threshold, so readers take the chunk path. *)
let load_stress_data db =
  exec db "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)";
  exec db
    ("INSERT INTO acct VALUES "
    ^ String.concat ", "
        (List.init n_acct (fun i -> Printf.sprintf "(%d, 0)" i)));
  exec db "CREATE TABLE spans (k INT, grp INT, valid Element)";
  let st = Random.State.make [| 17 |] in
  let base = Chronon.of_ymd 2000 1 1 in
  let rows =
    List.init 2000 (fun k ->
        let days n = Tip_core.Span.of_days (Random.State.int st n) in
        let start = Chronon.add base (days 900) in
        let stop = Chronon.add start (days 60) in
        Printf.sprintf "(%d, %d, '{[%s, %s]}')" k (Random.State.int st 7)
          (Chronon.to_string start) (Chronon.to_string stop))
  in
  exec db ("INSERT INTO spans VALUES " ^ String.concat ", " rows)

(* K readers and one writer over the wire. The writer adds 1 to every
   balance per statement, so any SUM a reader sees must be a multiple of
   [n_acct]: a read never observes a half-applied UPDATE. The temporal
   query runs beside the writer and must equal the embedded answer. *)
let check_atomic_reads () =
  let served = Tip_blade.Blade.create_database () in
  load_stress_data served;
  let reference = Tip_blade.Blade.create_database () in
  load_stress_data reference;
  let expected = render_rows (Db.exec reference temporal_query) in
  let writes = 60 and readers = 3 and reads = 60 in
  let failures = ref [] in
  let sums_seen = Atomic.make 0 in
  with_server served @@ fun port ->
  let execute c sql = Remote.execute ~deadline:30. c sql in
  let writer =
    client_thread failures "writer" (fun () ->
        let c = Remote.connect ~port () in
        Fun.protect ~finally:(fun () -> Remote.close c) @@ fun () ->
        for _ = 1 to writes do
          match execute c "UPDATE acct SET bal = bal + 1" with
          | Db.Affected n when n = n_acct -> ()
          | r -> note_problem failures ("update: " ^ Db.render_result r)
        done)
  in
  let reader i =
    client_thread failures (Printf.sprintf "reader %d" i) (fun () ->
        let st = Random.State.make [| 100 + i |] in
        let c = Remote.connect ~port () in
        Fun.protect ~finally:(fun () -> Remote.close c) @@ fun () ->
        for _ = 1 to reads do
          if Random.State.int st 10 < 7 then begin
            match execute c "SELECT SUM(bal) FROM acct" with
            | Db.Rows { rows = [ [| Value.Int s |] ]; _ } ->
              Atomic.incr sums_seen;
              if s mod n_acct <> 0 then
                note_problem failures
                  (Printf.sprintf "reader %d saw a torn SUM %d" i s)
            | r -> note_problem failures ("sum: " ^ Db.render_result r)
          end
          else begin
            let got = render_rows (execute c temporal_query) in
            if not (String.equal got expected) then
              note_problem failures
                (Printf.sprintf "reader %d: temporal answer %s, expected %s" i
                   got expected)
          end
        done)
  in
  let threads = writer :: List.init readers reader in
  List.iter Thread.join threads;
  Alcotest.(check (list string)) "no torn reads, no wrong answers" []
    (List.rev !failures);
  Alcotest.(check bool) "readers ran" true (Atomic.get sums_seen > 0);
  match Db.exec served "SELECT SUM(bal) FROM acct" with
  | Db.Rows { rows = [ [| Value.Int s |] ]; _ } ->
    Alcotest.(check int) "every update applied once" (writes * n_acct) s
  | r -> Alcotest.failf "unexpected: %s" (Db.render_result r)

(* --- a session domain that raises ---------------------------------------- *)

let thread_crashes () =
  List.length
    (List.filter
       (fun e -> String.equal e.Tip_obs.Events.ev_kind "thread_crash")
       (Tip_obs.Events.events ()))

(* With two domains, one of any two consecutive sessions starts on the
   host domain. The failpoint makes that host's first job raise:
   the session is lost (its connection closes), the failure is a
   [thread_crash] event, and the host lives on to start later sessions. *)
let check_host_crash_recorded () =
  with_domains 2 @@ fun () ->
  let db = Db.create () in
  with_server db @@ fun port ->
  let crashes0 = thread_crashes () in
  Failpoint.reset ();
  Failpoint.arm ~site:"pool.domain" ~hit:1 (Failpoint.Fail "boom");
  let try_session () =
    let c = Remote.connect ~port () in
    Fun.protect ~finally:(fun () -> Remote.close c) @@ fun () ->
    match Remote.execute ~deadline:5. c "SELECT 1" with
    | Db.Rows _ -> true
    | _ -> false
    | exception _ -> false
  in
  let first_two =
    Fun.protect ~finally:Failpoint.reset (fun () ->
        let a = try_session () in
        let b = try_session () in
        [ a; b ])
  in
  Alcotest.(check int) "exactly one session lost" 1
    (List.length (List.filter not first_two));
  Alcotest.(check int) "recorded as a thread_crash event" (crashes0 + 1)
    (thread_crashes ());
  Alcotest.(check (list bool)) "both domains start sessions afterwards"
    [ true; true ]
    [ try_session (); try_session () ]

(* --- NOW per statement ---------------------------------------------------- *)

(* A staffing history where AS OF NOW answers differently at each NOW. *)
let staffing_at now =
  let db = Tip_blade.Blade.create_database () in
  let at d = exec db (Printf.sprintf "SET NOW = '%s'" d) in
  at "1999-01-04";
  exec db "CREATE TABLE staff (name CHAR(20), role CHAR(20)) WITH HISTORY";
  exec db "INSERT INTO staff VALUES ('ada', 'engineer')";
  at "1999-06-15";
  exec db "UPDATE staff SET role = 'manager' WHERE name = 'ada'";
  at now;
  db

(* Two domains run NOW-relative statements side by side, each against a
   database whose NOW differs: every answer is the one for its own NOW,
   and the process clock's override is untouched afterwards. *)
let check_now_per_statement () =
  let saved = Chronon.of_ymd 1990 1 1 in
  Tx_clock.set_override saved;
  Fun.protect ~finally:Tx_clock.clear_override @@ fun () ->
  let run now role =
    let db = staffing_at now in
    let bad = ref 0 in
    for _ = 1 to 150 do
      (match Db.exec db "SELECT 'NOW'::Instant::Chronon::CHAR" with
      | Db.Rows { rows = [ [| Value.Str s |] ]; _ }
        when String.equal (String.trim s) now -> ()
      | _ -> incr bad);
      match
        Db.exec db
          "SELECT role FROM staff AS OF 'NOW'::Instant WHERE name = 'ada'"
      with
      | Db.Rows { rows = [ [| Value.Str r |] ]; _ } when String.equal r role ->
        ()
      | _ -> incr bad
    done;
    !bad
  in
  let d = Domain.spawn (fun () -> run "1999-03-01" "engineer") in
  let here = run "1999-12-01" "manager" in
  let there = Domain.join d in
  Alcotest.(check (pair int int)) "every answer at its own NOW" (0, 0)
    (here, there);
  Alcotest.(check string) "Tx_clock override restored"
    (Chronon.to_string saved)
    (Chronon.to_string (Tx_clock.now ()))

(* --- trace root and rows scanned per statement --------------------------- *)

let count_files_with dir needle =
  Array.fold_left
    (fun (all, hits) f ->
      let text =
        In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all
      in
      let hit =
        try
          ignore (Str.search_forward (Str.regexp_string needle) text 0);
          true
        with Not_found -> false
      in
      (all + 1, if hit then hits + 1 else hits))
    (0, 0) (Sys.readdir dir)

let statement_scans sql =
  List.fold_left
    (fun acc (s : Tip_obs.Introspect.stat) ->
      if String.equal s.Tip_obs.Introspect.query (Tip_sql.Lexer.fingerprint sql)
      then acc + s.Tip_obs.Introspect.rows_scanned
      else acc)
    0
    (Tip_obs.Introspect.snapshot ())

(* Two clients overlap: one runs EXPLAIN ANALYZE over a big table, the
   other a plain scan of a small one. With every statement slow
   (--slow-ms 0) each exports its trace: the number of exported trees
   with an "execute" span equals the EXPLAIN ANALYZE count exactly, so
   no session exported another's root. Each statement's rows_scanned in
   tip_stat_statements is its own scans, not the other session's. *)
let check_trace_and_scans_per_statement () =
  let db = Db.create () in
  exec db "CREATE TABLE rs_big (a INT)";
  exec db "CREATE TABLE rs_small (a INT)";
  let insert t n =
    exec db
      (Printf.sprintf "INSERT INTO %s VALUES %s" t
         (String.concat ", " (List.init n (fun i -> Printf.sprintf "(%d)" i))))
  in
  insert "rs_big" 3000;
  insert "rs_small" 10;
  let big = "EXPLAIN ANALYZE SELECT COUNT(*) FROM rs_big WHERE a >= 0" in
  let small = "SELECT COUNT(*) FROM rs_small WHERE a >= 0" in
  let per_call sql =
    let token = Tip_core.Deadline.create () in
    ignore (Db.exec ~token db sql);
    Tip_core.Deadline.rows_scanned token
  in
  let big_each = per_call big and small_each = per_call small in
  let dir = Filename.temp_file "tip_traces" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let was_enabled = Tip_obs.Switch.on () in
  let saved_dir = Tip_obs.Span.trace_dir () in
  Tip_obs.Switch.set true;
  Tip_obs.Span.set_trace_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      Tip_obs.Span.set_trace_dir saved_dir;
      Tip_obs.Switch.set was_enabled;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
  @@ fun () ->
  let big0 = statement_scans big and small0 = statement_scans small in
  let server = Server.listen ~slow_ms:0. ~port:0 db in
  Server.serve_in_background server;
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let port = Server.port server in
  let runs = 40 in
  let failures = ref [] in
  let client sql =
    client_thread failures sql (fun () ->
        let c = Remote.connect ~port () in
        Fun.protect ~finally:(fun () -> Remote.close c) @@ fun () ->
        for _ = 1 to runs do
          ignore (Remote.execute ~deadline:30. c sql)
        done)
  in
  List.iter Thread.join [ client big; client small ];
  Alcotest.(check (list string)) "both clients ran to the end" [] !failures;
  let files, with_execute = count_files_with dir "\"execute\"" in
  Alcotest.(check int) "one exported trace per statement" (2 * runs) files;
  Alcotest.(check int) "EXPLAIN ANALYZE trees are exactly its own" runs
    with_execute;
  Alcotest.(check int) "big statement's own scans" (runs * big_each)
    (statement_scans big - big0);
  Alcotest.(check int) "small statement's own scans" (runs * small_each)
    (statement_scans small - small0)

(* --- sessions own their state (DESIGN.md §17) ------------------------------ *)

let int_rows db sql =
  List.map
    (function [| Value.Int n |] -> n | _ -> Alcotest.fail "expected one INT")
    (Db.rows_exn (Db.exec db sql))

let remote_ints c sql =
  List.map
    (function [| Value.Int n |] -> n | _ -> Alcotest.fail "expected one INT")
    (Db.rows_exn (Remote.execute ~deadline:30. c sql))

(* A served table [t] holding row 1, and session A with [BEGIN; INSERT
   (2)] open. *)
let with_open_transaction ?idle_timeout db f =
  exec db "CREATE TABLE t (a INT PRIMARY KEY)";
  exec db "INSERT INTO t VALUES (1)";
  let server = Server.listen ?idle_timeout ~port:0 db in
  Server.serve_in_background server;
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let port = Server.port server in
  let a = Remote.connect ~port () in
  ignore (Remote.execute a "BEGIN");
  ignore (Remote.execute a "INSERT INTO t VALUES (2)");
  f server port a

(* Runs [f] on a thread; [wait] joins it and returns its outcome, [done_]
   tells whether it has finished. *)
let background f =
  let result = ref None and finished = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        result := Some (try Ok (f ()) with e -> Error (Printexc.to_string e));
        Atomic.set finished true)
      ()
  in
  let wait () =
    Thread.join th;
    match !result with
    | Some (Ok v) -> v
    | Some (Error e) -> Alcotest.failf "background statement raised %s" e
    | None -> Alcotest.fail "background statement never ran"
  in
  (wait, fun () -> Atomic.get finished)

let check_no_dirty_read () =
  with_open_transaction (Db.create ()) @@ fun _ port a ->
  let b = Remote.connect ~port () in
  let wait, finished =
    background (fun () -> remote_ints b "SELECT a FROM t ORDER BY a")
  in
  Unix.sleepf 0.2;
  Alcotest.(check bool) "B waits for A's transaction" false (finished ());
  ignore (Remote.execute a "ROLLBACK");
  Alcotest.(check (list int)) "B never sees A's uncommitted row" [ 1 ] (wait ());
  Remote.close a;
  Remote.close b

let check_acked_write_survives_rollback () =
  with_open_transaction (Db.create ()) @@ fun _ port a ->
  let b = Remote.connect ~port () in
  let wait, _ =
    background (fun () -> Remote.execute ~deadline:30. b "INSERT INTO t VALUES (3)")
  in
  Unix.sleepf 0.2;
  ignore (Remote.execute a "ROLLBACK");
  (match wait () with
  | Db.Affected 1 -> ()
  | r -> Alcotest.failf "B's insert: %s" (Db.render_result r));
  Alcotest.(check (list int)) "B's acknowledged row survives" [ 1; 3 ]
    (remote_ints b "SELECT a FROM t ORDER BY a");
  Remote.close a;
  Remote.close b

let check_settings_stay_with_their_connection () =
  let db = Tip_blade.Blade.create_database () in
  with_server db @@ fun port ->
  let now_of c =
    match Remote.execute c "SELECT 'NOW'::Instant::Chronon::CHAR" with
    | Db.Rows { rows = [ [| Value.Str s |] ]; _ } -> String.trim s
    | r -> Alcotest.failf "NOW: %s" (Db.render_result r)
  in
  let deadline_of c =
    match
      Remote.execute c
        "SELECT deadline_remaining_ms FROM tip_stat_activity WHERE state = \
         'active'"
    with
    | Db.Rows { rows = [ [| v |] ]; _ } -> Value.is_null v
    | r -> Alcotest.failf "activity: %s" (Db.render_result r)
  in
  let first = Remote.connect ~port () in
  ignore (Remote.execute first "SET NOW = '1999-01-01'");
  ignore (Remote.execute first "SET TIMEOUT 60000");
  Alcotest.(check string) "the setter sees its NOW" "1999-01-01" (now_of first);
  Alcotest.(check bool) "the setter's statements carry a deadline" false
    (deadline_of first);
  Remote.close first;
  let later = Remote.connect ~port () in
  Alcotest.(check bool) "a later connection keeps the clock" true
    (now_of later <> "1999-01-01");
  Alcotest.(check bool) "a later connection has no deadline" true
    (deadline_of later);
  Alcotest.(check bool) "the database's own NOW is untouched" true
    (Db.now_override db = None);
  Remote.close later

(* Two connections on one embedded database, each driven by its own
   domain with its own what-if NOW: every answer is at its own NOW. *)
let check_embedded_connections_keep_their_now () =
  let db = Tip_blade.Blade.create_database () in
  let run day =
    let conn = Tip_client.Connection.connect_to db in
    Tip_client.Connection.set_now conn (Chronon.of_string_exn day);
    let bad = ref 0 in
    for _ = 1 to 1000 do
      match
        Tip_client.Connection.execute conn "SELECT 'NOW'::Instant::Chronon::CHAR"
      with
      | Db.Rows { rows = [ [| Value.Str s |] ]; _ }
        when String.equal (String.trim s) day -> ()
      | _ -> incr bad
    done;
    !bad
  in
  let d = Domain.spawn (fun () -> run "1999-03-01") in
  let here = run "2003-12-01" in
  Alcotest.(check (pair int int)) "every answer at its own NOW" (0, 0)
    (here, Domain.join d);
  Alcotest.(check bool) "the database's own NOW is untouched" true
    (Db.now_override db = None)

let check_disconnect_rolls_back () =
  with_open_transaction (Db.create ()) @@ fun _ port a ->
  Remote.close a;
  let b = Remote.connect ~port () in
  let t0 = Unix.gettimeofday () in
  ignore (Remote.execute ~deadline:5. b "INSERT INTO t VALUES (3)");
  Alcotest.(check bool) "B writes at once" true (Unix.gettimeofday () -. t0 < 5.);
  Alcotest.(check (list int)) "A's row is gone" [ 1; 3 ]
    (remote_ints b "SELECT a FROM t ORDER BY a");
  Remote.close b

let check_idle_drop_rolls_back () =
  with_open_transaction ~idle_timeout:0.3 (Db.create ()) @@ fun _ port a ->
  let b = Remote.connect ~port () in
  ignore (Remote.execute ~deadline:10. b "INSERT INTO t VALUES (3)");
  Alcotest.(check (list int)) "A's row is gone" [ 1; 3 ]
    (remote_ints b "SELECT a FROM t ORDER BY a");
  (match Remote.execute a "COMMIT" with
  | r -> Alcotest.failf "A survived its idle drop: %s" (Db.render_result r)
  | exception Remote.Remote_error _ -> ());
  Remote.close a;
  Remote.close b

let scratch_dir () =
  let dir = Filename.temp_file "tip_drain" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let rm_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* tip_serve's shutdown: drain, checkpoint, close. A transaction left
   open by an idle session must reach neither the snapshot nor the WAL. *)
let check_drain_rolls_back () =
  let dir = scratch_dir () in
  Fun.protect ~finally:(fun () -> rm_dir dir) @@ fun () ->
  let db, _ = Db.open_durable ~dir () in
  with_open_transaction db (fun server _ a ->
      ignore (Server.drain ~grace:5. server);
      (try ignore (Db.checkpoint db)
       with Db.Error msg -> Alcotest.failf "shutdown checkpoint: %s" msg);
      Db.close_durable db;
      Remote.close a);
  Alcotest.(check (list int)) "not in memory" [ 1 ] (int_rows db "SELECT a FROM t");
  let snapshot = Persist.load (Recovery.snapshot_path ~dir) in
  Alcotest.(check int) "not in the snapshot" 1
    (Table.row_count (Catalog.table_exn snapshot "t"));
  let scan = Wal.scan (Recovery.wal_path ~dir) in
  Alcotest.(check int) "not in the WAL" 0 (List.length scan.Wal.batches);
  let reopened, _ = Db.open_durable ~dir () in
  Fun.protect ~finally:(fun () -> Db.close_durable reopened) @@ fun () ->
  Alcotest.(check (list int)) "not after reopening" [ 1 ]
    (int_rows reopened "SELECT a FROM t")

(* The lock holder shows in tip_stat_activity between its statements. The
   relation is process-wide, so a second database in the process can read
   it while the holder keeps the served one locked. *)
let check_idle_in_transaction_visible () =
  with_open_transaction (Db.create ()) @@ fun _ _ a ->
  let states () =
    List.map
      (function
        | [| Value.Str s |] -> s
        | _ -> Alcotest.fail "expected a state")
      (Db.rows_exn
         (Db.exec (Db.create ()) "SELECT state FROM tip_stat_activity"))
  in
  Alcotest.(check (list string)) "A is idle in transaction"
    [ "idle in transaction" ] (states ());
  ignore (Remote.execute a "COMMIT");
  Alcotest.(check (list string)) "A is idle after COMMIT" [ "idle" ] (states ());
  Remote.close a

let suite =
  [ Alcotest.test_case "readers never see a half-applied write" `Quick
      check_atomic_reads;
    Alcotest.test_case "a failing session domain is recorded" `Quick
      check_host_crash_recorded;
    Alcotest.test_case "NOW per statement across domains" `Quick
      check_now_per_statement;
    Alcotest.test_case "trace root and rows scanned per statement" `Quick
      check_trace_and_scans_per_statement;
    Alcotest.test_case "no dirty read over the wire" `Quick check_no_dirty_read;
    Alcotest.test_case "an acknowledged write survives another's ROLLBACK"
      `Quick check_acked_write_survives_rollback;
    Alcotest.test_case "SET NOW and SET TIMEOUT stay with their connection"
      `Quick check_settings_stay_with_their_connection;
    Alcotest.test_case "embedded connections keep their own NOW" `Quick
      check_embedded_connections_keep_their_now;
    Alcotest.test_case "a disconnect rolls back" `Quick
      check_disconnect_rolls_back;
    Alcotest.test_case "an idle drop rolls back" `Quick
      check_idle_drop_rolls_back;
    Alcotest.test_case "drain rolls back before the checkpoint" `Quick
      check_drain_rolls_back;
    Alcotest.test_case "the lock holder is idle in transaction" `Quick
      check_idle_in_transaction_visible ]
