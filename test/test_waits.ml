(* Wait-event profiling, the ASH sampler, and the monitoring endpoint
   (DESIGN.md §16): accounting, ring semantics, the three tip_stat_*
   virtual tables, and the HTTP probes over a real socket. *)

open Tip_storage
module Db = Tip_engine.Database
module Span = Tip_obs.Span
module Ash = Tip_obs.Ash
module Events = Tip_obs.Events
module Server = Tip_server.Server
module Remote = Tip_server.Remote
module Monitor = Tip_server.Monitor
module Replication = Tip_server.Replication

let with_dir = Test_durability.with_dir
let wait_until = Test_replication.wait_until

(* Runs [f] with the background sampler parked and the ring sized to
   [cap], restoring both afterwards so the suite leaves the global
   registry the way other suites expect it. *)
let with_quiet_sampler ?cap f =
  let was_running = Ash.sampler_running () in
  let old_cap = Ash.ring_capacity () in
  Ash.stop_sampler ();
  (match cap with Some n -> Ash.set_ring_capacity n | None -> Ash.clear_samples ());
  Fun.protect
    ~finally:(fun () ->
      Ash.set_ring_capacity old_cap;
      if was_running then Ash.start_sampler ())
    f

(* --- wait-span accounting ------------------------------------------------ *)

let find_stat cls =
  let _, n, total_ns =
    List.find (fun (c, _, _) -> c = cls) (Span.wait_stats ())
  in
  (n, total_ns)

let set_active s active =
  if active then
    Span.begin_statement s ~query:"SELECT 1" ~fingerprint:"SELECT ?"
      ~token:Tip_core.Deadline.never
  else Span.end_statement s ~in_transaction:false

let check_with_wait_accounting () =
  with_quiet_sampler ~cap:64 (fun () ->
      let s = Span.register ~id:9001 ~kind:"test" ~fingerprint:"SELECT 9001" () in
      Fun.protect ~finally:(fun () -> Span.unregister s) @@ fun () ->
      let ckpt0, _ = find_stat Span.Checkpoint in
      let fsync0, fsync0_ns = find_stat Span.WalFsync in
      (* nested waits: the inner class shows while it runs, the outer
         class is restored when it returns *)
      Span.with_ Span.Checkpoint (fun () ->
          Ash.sample_now ();
          Span.with_ Span.WalFsync (fun () ->
              Ash.sample_now ();
              Thread.delay 0.002);
          Ash.sample_now ());
      let ckpt1, _ = find_stat Span.Checkpoint in
      let fsync1, fsync1_ns = find_stat Span.WalFsync in
      Alcotest.(check int) "checkpoint counted once" (ckpt0 + 1) ckpt1;
      Alcotest.(check int) "fsync counted once" (fsync0 + 1) fsync1;
      Alcotest.(check bool) "fsync wait time accrued" true
        (fsync1_ns - fsync0_ns >= 1_000_000);
      let mine =
        Ash.samples ()
        |> List.filter (fun sa -> sa.Ash.sa_session = 9001)
      in
      Alcotest.(check (list string)) "nested wait visible, outer restored"
        [ "Checkpoint"; "WalFsync"; "Checkpoint" ]
        (List.map (fun sa -> sa.Ash.sa_state) mine);
      List.iter
        (fun sa ->
          Alcotest.(check string) "kind follows the session" "test" sa.Ash.sa_kind;
          Alcotest.(check (option string)) "query fingerprint on the sample"
            (Some "SELECT 9001") sa.Ash.sa_query)
        mine)

let check_idle_sessions_not_sampled () =
  with_quiet_sampler ~cap:64 (fun () ->
      let s = Span.register ~id:9002 ~kind:"test" () in
      Fun.protect ~finally:(fun () -> Span.unregister s) @@ fun () ->
      Ash.sample_now ();
      let mine () =
        List.filter (fun sa -> sa.Ash.sa_session = 9002) (Ash.samples ())
      in
      Alcotest.(check int) "idle session invisible" 0 (List.length (mine ()));
      set_active s true;
      Ash.sample_now ();
      (match mine () with
      | [ sa ] -> Alcotest.(check string) "on-cpu state" "Cpu" sa.Ash.sa_state
      | l -> Alcotest.failf "expected 1 sample, got %d" (List.length l));
      set_active s false)

let check_ring_eviction () =
  with_quiet_sampler ~cap:4 (fun () ->
      let s = Span.register ~id:9003 ~kind:"test" () in
      Fun.protect ~finally:(fun () -> Span.unregister s) @@ fun () ->
      set_active s true;
      for _ = 1 to 7 do
        Ash.sample_now ()
      done;
      set_active s false;
      let seqs = List.map (fun sa -> sa.Ash.sa_seq) (Ash.samples ()) in
      Alcotest.(check int) "ring holds exactly its capacity" 4
        (List.length seqs);
      Alcotest.(check (list int)) "oldest first, newest 4 survive"
        (List.sort compare seqs) seqs;
      Alcotest.(check int) "the 3 oldest were evicted" 3
        (List.nth seqs 3 - List.nth seqs 0))

let check_sampler_thread_toggles () =
  let was_running = Ash.sampler_running () in
  Fun.protect
    ~finally:(fun () -> if was_running then Ash.start_sampler () else Ash.stop_sampler ())
    (fun () ->
      Ash.stop_sampler ();
      Alcotest.(check bool) "stopped" false (Ash.sampler_running ());
      Ash.start_sampler ();
      Ash.start_sampler ();
      (* idempotent *)
      Alcotest.(check bool) "running" true (Ash.sampler_running ());
      Ash.stop_sampler ();
      Alcotest.(check bool) "stopped again" false (Ash.sampler_running ()))

(* --- real wait sites ----------------------------------------------------- *)

let check_wal_fsync_waits () =
  with_dir (fun dir ->
      let fsync0, fsync0_ns = find_stat Span.WalFsync in
      let append0, _ = find_stat Span.WalAppend in
      let db, _ = Db.open_durable ~sync:Wal.Always ~dir () in
      Fun.protect ~finally:(fun () -> Db.close_durable db) @@ fun () ->
      ignore (Db.exec db "CREATE TABLE wt (a INT PRIMARY KEY)");
      ignore (Db.exec db "INSERT INTO wt VALUES (1), (2), (3)");
      (* One fsync on a fast disk can finish inside the wall clock's
         resolution and accrue 0 ns, so commit (up to 200 times) until
         some fsync time shows. *)
      let rec commit_until_timed i =
        if i < 200 && snd (find_stat Span.WalFsync) <= fsync0_ns then begin
          ignore (Db.exec db (Printf.sprintf "INSERT INTO wt VALUES (%d)" (10 + i)));
          commit_until_timed (i + 1)
        end
      in
      commit_until_timed 0;
      let fsync1, fsync1_ns = find_stat Span.WalFsync in
      let append1, _ = find_stat Span.WalAppend in
      Alcotest.(check bool) "sync-always fsyncs counted" true
        (fsync1 - fsync0 >= 2);
      Alcotest.(check bool) "fsync wall time accrued" true
        (fsync1_ns > fsync0_ns);
      Alcotest.(check bool) "wal appends counted" true (append1 > append0))

(* A served database with [big] holding 200 rows and two open clients. *)
let with_two_clients f =
  let db = Db.create () in
  let server = Server.listen ~port:0 db in
  Server.serve_in_background server;
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let port = Server.port server in
  let c1 = Remote.connect ~port () in
  let c2 = Remote.connect ~port () in
  Fun.protect
    ~finally:(fun () ->
      Remote.close c1;
      Remote.close c2)
  @@ fun () ->
  let tuples =
    String.concat ", " (List.init 200 (fun i -> Printf.sprintf "(%d)" i))
  in
  ignore (Remote.execute c1 "CREATE TABLE big (a INT PRIMARY KEY)");
  ignore (Remote.execute c1 ("INSERT INTO big VALUES " ^ tuples));
  f c1 c2

(* Eight million joined rows: long enough that a statement started 50 ms
   later is still queued (or running) while this one holds its lock. *)
let slow_count =
  "SELECT COUNT(*) FROM big b1, big b2, big b3 WHERE b1.a + b2.a + b3.a > -1"

(* A reader queued behind a writer: the reader's wait is charged to
   DbLock and the test's own fine-grained sampling catches it in the ASH
   ring (the 100ms production tick would too, given a longer-running
   statement). The long statement is a write: readers share the lock,
   so only a writer makes a reader queue. *)
let check_dblock_contention () =
  with_two_clients @@ fun c1 c2 ->
  ignore (Remote.execute c1 "CREATE TABLE sink (n INT)");
  with_quiet_sampler ~cap:4096 (fun () ->
      let _, dblock0_ns = find_stat Span.DbLock in
      (* fine-grained sampling thread so a sub-second collision is
         still observed *)
      let sampling = Atomic.make true in
      let sampler =
        Thread.create
          (fun () ->
            while Atomic.get sampling do
              Ash.sample_now ();
              Thread.delay 0.004
            done)
          ()
      in
      let write = "INSERT INTO sink " ^ slow_count in
      let racer =
        Thread.create (fun () -> ignore (Remote.execute c1 write)) ()
      in
      Thread.delay 0.05;
      (* c1 holds the db lock exclusive mid-scan; this read queues *)
      ignore (Remote.execute c2 "SELECT COUNT(*) FROM big");
      Thread.join racer;
      Atomic.set sampling false;
      Thread.join sampler;
      let _, dblock1_ns = find_stat Span.DbLock in
      Alcotest.(check bool) "queued client charged to DbLock" true
        (dblock1_ns - dblock0_ns >= 10_000_000);
      let dblock_samples =
        Ash.samples ()
        |> List.filter (fun sa ->
               sa.Ash.sa_state = "DbLock" && sa.Ash.sa_kind = "client")
      in
      Alcotest.(check bool) "ASH caught the queued session" true
        (dblock_samples <> []);
      (* the vtab agrees, over the wire *)
      match
        Remote.execute c2
          "SELECT total_wait_ms FROM tip_stat_waits WHERE wait_class = 'DbLock'"
      with
      | Db.Rows { rows = [ [| Value.Float ms |] ]; _ } ->
        Alcotest.(check bool) "tip_stat_waits shows lock wait" true (ms > 1.0)
      | r -> Alcotest.failf "unexpected: %s" (Db.render_result r))

(* Two slow readers share the lock: the second starts while the first
   is running, finishes first, and waits about nothing for the lock. *)
let check_readers_overlap () =
  with_two_clients @@ fun c1 c2 ->
  let first_done = Atomic.make false in
  let racer =
    Thread.create
      (fun () ->
        ignore (Remote.execute c1 slow_count);
        Atomic.set first_done true)
      ()
  in
  Thread.delay 0.05;
  let _, dblock0_ns = find_stat Span.DbLock in
  (match
     Remote.execute c2 "SELECT COUNT(*) FROM big b1, big b2 WHERE b1.a < b2.a"
   with
  | Db.Rows { rows = [ [| Value.Int n |] ]; _ } ->
    Alcotest.(check int) "second reader's answer" (200 * 199 / 2) n
  | r -> Alcotest.failf "unexpected: %s" (Db.render_result r));
  let second_first = not (Atomic.get first_done) in
  let _, dblock1_ns = find_stat Span.DbLock in
  Thread.join racer;
  Alcotest.(check bool) "the second reader finished first" true second_first;
  Alcotest.(check bool) "no DbLock wait between readers" true
    (dblock1_ns - dblock0_ns < 5_000_000)

(* --- the tip_stat_ash vtab and its valid-time periods -------------------- *)

let check_ash_periods_filterable () =
  let db = Tip_workload.Medical.demo_database () in
  with_quiet_sampler ~cap:64 (fun () ->
      let s = Span.register ~id:9004 ~kind:"test" () in
      Fun.protect ~finally:(fun () -> Span.unregister s) @@ fun () ->
      set_active s true;
      for _ = 1 to 3 do
        Ash.sample_now ()
      done;
      set_active s false;
      let count sql =
        match Db.exec db sql with
        | Db.Rows { rows = [ [| Value.Int n |] ]; _ } -> n
        | r -> Alcotest.failf "unexpected: %s" (Db.render_result r)
      in
      (* other suites' sessions may share the ring; ours are keyed *)
      let total =
        count "SELECT COUNT(*) FROM tip_stat_ash WHERE session_id = 9004"
      in
      Alcotest.(check int) "all samples surfaced" 3 total;
      (* samples carry real valid-time elements: the standard sargable
         predicates window them like any other valid-time column *)
      Alcotest.(check int) "overlaps() keeps a window around now" 3
        (count
           "SELECT COUNT(*) FROM tip_stat_ash WHERE session_id = 9004 AND \
            overlaps(valid, '{[2020-01-01, 2099-01-01]}')");
      Alcotest.(check int) "a disjoint window filters everything" 0
        (count
           "SELECT COUNT(*) FROM tip_stat_ash WHERE overlaps(valid, \
            '{[1990-01-01, 1995-01-01]}')"))

(* --- the event journal --------------------------------------------------- *)

let check_event_journal_persists () =
  with_dir (fun dir ->
      let db, _ = Db.open_durable ~sync:Wal.Always ~dir () in
      ignore (Db.exec db "CREATE TABLE ej (a INT PRIMARY KEY)");
      ignore (Db.exec db "INSERT INTO ej VALUES (1)");
      ignore (Db.checkpoint db);
      let kinds () = List.map (fun e -> e.Events.ev_kind) (Events.events ()) in
      Alcotest.(check bool) "recovery + checkpoint recorded" true
        (List.mem "recovery" (kinds ()) && List.mem "checkpoint" (kinds ()));
      Db.close_durable db;
      (* reopening reloads the journal: history survives the process *)
      let db2, _ = Db.open_durable ~sync:Wal.Always ~dir () in
      Fun.protect ~finally:(fun () -> Db.close_durable db2) @@ fun () ->
      let ks = kinds () in
      Alcotest.(check bool) "journal reloaded across reopen" true
        (List.mem "checkpoint" ks
        && List.length (List.filter (( = ) "recovery") ks) >= 2);
      match
        Db.exec db2 "SELECT COUNT(*) FROM tip_stat_events WHERE kind = 'checkpoint'"
      with
      | Db.Rows { rows = [ [| Value.Int n |] ]; _ } ->
        Alcotest.(check bool) "vtab surfaces the journal" true (n >= 1)
      | r -> Alcotest.failf "unexpected: %s" (Db.render_result r))

(* --- supervised threads ---------------------------------------------------- *)

let thread_crash_events () =
  List.filter
    (fun e -> String.equal e.Events.ev_kind "thread_crash")
    (Events.events ())

let check_thread_crash_journaled () =
  let crashes = Tip_obs.Metrics.counter "thread_crashes_total" in
  let counted0 = Tip_obs.Metrics.counter_value crashes in
  let journaled0 = List.length (thread_crash_events ()) in
  let cleaned_up = ref None in
  Thread.join
    (Events.spawn ~name:"test body"
       ~on_crash:(fun e -> cleaned_up := Some e)
       (fun () -> failwith "boom"));
  Alcotest.(check int) "counted" (counted0 + 1)
    (Tip_obs.Metrics.counter_value crashes);
  (match List.rev (thread_crash_events ()) with
  | e :: _ when List.length (thread_crash_events ()) = journaled0 + 1 ->
    Alcotest.(check string) "journaled with its name" "test body: Failure(\"boom\")"
      e.Events.ev_detail
  | _ -> Alcotest.fail "no thread_crash event");
  Alcotest.(check bool) "on_crash saw the exception" true
    (!cleaned_up = Some (Failure "boom"))

(* An armed [repl.apply] crash kills the follower mid-apply: its death
   is an event row, and tip_stat_replication stops calling it live. *)
let check_follower_crash_visible () =
  with_dir (fun dir ->
      let pdb, _ = Db.open_durable ~sync:Wal.Always ~dir () in
      let pserver = Server.listen ~port:0 pdb in
      Server.serve_in_background pserver;
      let port = Server.port pserver in
      let rdb, _lock, repl = Test_replication.start_replica ~port () in
      Fun.protect
        ~finally:(fun () ->
          Failpoint.reset ();
          Replication.stop repl;
          Server.stop pserver;
          try Db.close_durable pdb with _ -> ())
      @@ fun () ->
      let c = Remote.connect ~port () in
      Fun.protect ~finally:(fun () -> Remote.close c) @@ fun () ->
      ignore (Remote.execute c "CREATE TABLE fc (a INT PRIMARY KEY)");
      Alcotest.(check bool) "follower streams" true
        (wait_until (fun () -> Replication.state repl = "streaming"));
      let journaled0 = List.length (thread_crash_events ()) in
      Failpoint.arm ~site:"repl.apply" ~hit:1 Failpoint.Crash_now;
      ignore (Remote.execute c "INSERT INTO fc VALUES (1)");
      Alcotest.(check bool) "the death is journaled" true
        (wait_until (fun () ->
             List.exists
               (fun e ->
                 String.starts_with ~prefix:"replication follower"
                   e.Events.ev_detail)
               (List.filteri (fun i _ -> i >= journaled0) (thread_crash_events ()))));
      match
        Db.exec rdb
          (Printf.sprintf
             "SELECT state FROM tip_stat_replication WHERE peer_addr = \
              '127.0.0.1:%d'"
             port)
      with
      | Db.Rows { rows = [ [| Value.Str state |] ]; _ } ->
        Alcotest.(check string) "no longer a live state" "crashed" state
      | r -> Alcotest.failf "unexpected: %s" (Db.render_result r))

(* --- the HTTP endpoint --------------------------------------------------- *)

(* A one-shot HTTP/1.1 GET, returning (status, headers, body). *)
let http_get ~port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let oc = Unix.out_channel_of_descr fd in
      Printf.fprintf oc
        "GET %s HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n" path;
      flush oc;
      let ic = Unix.in_channel_of_descr fd in
      let buf = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel buf ic 1
         done
       with End_of_file -> ());
      let raw = Buffer.contents buf in
      match Str.bounded_split_delim (Str.regexp_string "\r\n\r\n") raw 2 with
      | [ head; body ] ->
        let status = Scanf.sscanf head "HTTP/1.1 %d" (fun d -> d) in
        (status, head, body)
      | _ -> Alcotest.failf "malformed HTTP response: %S" raw)

(* A strict reading of the Prometheus text exposition format: every
   sample line must parse and belong to a # TYPE-declared family
   (directly, or via the histogram _bucket/_sum/_count suffixes). *)
let check_prometheus_exposition body =
  let types = Hashtbl.create 64 in
  let sample_re =
    Str.regexp
      "^\\([a-zA-Z_:][a-zA-Z0-9_:]*\\)\\({[^}]*}\\)? \
       \\(-?[0-9]+\\(\\.[0-9]+\\)?\\([eE][+-]?[0-9]+\\)?\\|[+-]?Inf\\|NaN\\)$"
  in
  let samples = ref 0 in
  List.iter
    (fun line ->
      if line = "" then ()
      else if line.[0] = '#' then (
        match String.split_on_char ' ' line with
        | "#" :: "TYPE" :: name :: [ kind ] ->
          Alcotest.(check bool)
            (Printf.sprintf "known metric kind for %s" name)
            true
            (List.mem kind [ "counter"; "gauge"; "histogram"; "summary" ]);
          Hashtbl.replace types name kind
        | "#" :: "HELP" :: _name :: _rest -> ()
        | _ -> Alcotest.failf "unparsable comment line: %S" line)
      else if Str.string_match sample_re line 0 then (
        incr samples;
        let name = Str.matched_group 1 line in
        let histogram_family suffix =
          let ls = String.length suffix and ln = String.length name in
          ln > ls
          && String.sub name (ln - ls) ls = suffix
          &&
          let fam = String.sub name 0 (ln - ls) in
          Hashtbl.find_opt types fam = Some "histogram"
        in
        let declared =
          Hashtbl.mem types name
          || List.exists histogram_family [ "_bucket"; "_sum"; "_count" ]
        in
        if not declared then
          Alcotest.failf "sample without a # TYPE family: %S" line)
      else Alcotest.failf "unparsable exposition line: %S" line)
    (String.split_on_char '\n' body);
  Alcotest.(check bool) "exposition is non-trivial" true
    (!samples > 10 && Hashtbl.length types > 5);
  Alcotest.(check bool) "a histogram family survives the strict parse" true
    (Hashtbl.fold (fun _ k acc -> acc || k = "histogram") types false)

let check_monitor_endpoints () =
  let ready = ref (true, "ready: test") in
  let mon = Monitor.start ~port:0 ~ready:(fun () -> !ready) () in
  Fun.protect ~finally:(fun () -> Monitor.stop mon) @@ fun () ->
  let port = Monitor.port mon in
  let status, _, body = http_get ~port "/healthz" in
  Alcotest.(check int) "healthz status" 200 status;
  Alcotest.(check string) "healthz body" "ok\n" body;
  let status, _, body = http_get ~port "/readyz" in
  Alcotest.(check int) "ready" 200 status;
  Alcotest.(check string) "readiness detail is the body" "ready: test\n" body;
  ready := (false, "not ready: draining");
  let status, _, body = http_get ~port "/readyz" in
  Alcotest.(check int) "readiness flips with the probe" 503 status;
  Alcotest.(check string) "503 carries the reason" "not ready: draining\n" body;
  let status, head, body = http_get ~port "/metrics" in
  Alcotest.(check int) "metrics status" 200 status;
  Alcotest.(check bool) "exposition content type" true
    (let re = Str.regexp_string "text/plain; version=0.0.4" in
     try
       ignore (Str.search_forward re head 0);
       true
     with Not_found -> false);
  check_prometheus_exposition body;
  let status, _, body = http_get ~port "/ash.json" in
  Alcotest.(check int) "ash status" 200 status;
  Alcotest.(check bool) "ash body is a JSON array" true
    (String.length body >= 2 && body.[0] = '[');
  let status, _, _ = http_get ~port "/nope" in
  Alcotest.(check int) "unknown path" 404 status

(* Readiness through the replica probe tip_serve installs: streaming
   and fresh reads 200; a dead primary stalls the stream and the same
   URL flips to 503. *)
let check_readyz_flips_on_stalled_replica () =
  with_dir (fun dir ->
      let pdb, _ = Db.open_durable ~sync:Wal.Always ~dir () in
      let pserver = Server.listen ~port:0 pdb in
      Server.serve_in_background pserver;
      let rdb, _lock, repl =
        Test_replication.start_replica ~port:(Server.port pserver) ()
      in
      ignore rdb;
      let max_staleness = 0.75 in
      let ready () =
        match Replication.state repl with
        | "streaming" ->
          let stale = Replication.staleness_seconds repl in
          if stale <= max_staleness then
            (true, Printf.sprintf "ready: streaming, staleness %.3fs" stale)
          else (false, Printf.sprintf "not ready: staleness %.3fs" stale)
        | st -> (false, "not ready: replication " ^ st)
      in
      let mon = Monitor.start ~port:0 ~ready () in
      Fun.protect
        ~finally:(fun () ->
          Monitor.stop mon;
          Replication.stop repl;
          Server.stop pserver;
          try Db.close_durable pdb with _ -> ())
      @@ fun () ->
      let mport = Monitor.port mon in
      let c = Remote.connect ~port:(Server.port pserver) () in
      ignore (Remote.execute c "CREATE TABLE rz (a INT PRIMARY KEY)");
      ignore (Remote.execute c "INSERT INTO rz VALUES (1)");
      Remote.close c;
      Alcotest.(check bool) "replica becomes ready" true
        (wait_until (fun () ->
             let status, _, _ = http_get ~port:mport "/readyz" in
             status = 200));
      (* primary gone: Server.stop only closes the listener, so sever
         the established feed too — the reconnect then finds nobody *)
      Server.stop pserver;
      Replication.inject_disconnect repl;
      Alcotest.(check bool) "stalled replica turns unready" true
        (wait_until ~timeout:15. (fun () ->
             let status, _, _ = http_get ~port:mport "/readyz" in
             status = 503)))

let suite =
  [
    Alcotest.test_case "with_wait accounting and nesting" `Quick
      check_with_wait_accounting;
    Alcotest.test_case "idle sessions are not sampled" `Quick
      check_idle_sessions_not_sampled;
    Alcotest.test_case "ASH ring evicts oldest first" `Quick
      check_ring_eviction;
    Alcotest.test_case "sampler thread start/stop" `Quick
      check_sampler_thread_toggles;
    Alcotest.test_case "WAL fsync waits under sync-always" `Quick
      check_wal_fsync_waits;
    Alcotest.test_case "two clients contend on the db lock" `Quick
      check_dblock_contention;
    Alcotest.test_case "tip_stat_ash windows with period predicates" `Quick
      check_ash_periods_filterable;
    Alcotest.test_case "event journal persists across reopen" `Quick
      check_event_journal_persists;
    Alcotest.test_case "a thread that raises is journaled" `Quick
      check_thread_crash_journaled;
    Alcotest.test_case "a crashed follower is visible" `Quick
      check_follower_crash_visible;
    Alcotest.test_case "monitor endpoints over a socket" `Quick
      check_monitor_endpoints;
    Alcotest.test_case "readyz flips on a stalled replica" `Quick
      check_readyz_flips_on_stalled_replica;
    Alcotest.test_case "two slow readers overlap" `Quick check_readers_overlap;
  ]
