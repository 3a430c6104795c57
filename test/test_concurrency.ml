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
  let was_enabled = Tip_obs.Introspect.enabled () in
  let saved_dir = Tip_obs.Trace.trace_dir () in
  Tip_obs.Introspect.set_enabled true;
  Tip_obs.Trace.set_trace_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      Tip_obs.Trace.set_trace_dir saved_dir;
      Tip_obs.Introspect.set_enabled was_enabled;
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

let suite =
  [ Alcotest.test_case "readers never see a half-applied write" `Quick
      check_atomic_reads;
    Alcotest.test_case "a failing session domain is recorded" `Quick
      check_host_crash_recorded;
    Alcotest.test_case "NOW per statement across domains" `Quick
      check_now_per_statement;
    Alcotest.test_case "trace root and rows scanned per statement" `Quick
      check_trace_and_scans_per_statement ]
