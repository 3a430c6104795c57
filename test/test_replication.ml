(* Replication tests (DESIGN.md §13): the incremental stream parser,
   resume-from-confirmed-offset after corruption, generation handshake,
   the Every_n flush satellites, live primary/replica convergence with
   fault-injected streams, read-only enforcement, lag-bounded routed
   reads, and a differential fuzz — random workloads with stream
   failpoints armed and the replica killed or disconnected mid-stream
   must still converge byte-for-byte with the primary's committed
   state. *)

module Db = Tip_engine.Database
module Catalog = Tip_storage.Catalog
module Wal = Tip_storage.Wal
module Replica = Tip_storage.Replica
module Failpoint = Tip_storage.Failpoint
module Persist = Tip_storage.Persist
module Recovery = Tip_storage.Recovery
module Server = Tip_server.Server
module Remote = Tip_server.Remote
module Replication = Tip_server.Replication

(* Shared with the durability suite: temp dirs, the order-insensitive
   state fingerprint, the random workload generator. *)
let with_dir = Test_durability.with_dir
let fingerprint = Test_durability.fingerprint
let read_file = Test_durability.read_file
let free_port = Test_durability.free_port
let gen_trace = Test_durability.gen_trace
let apply_stmt = Test_durability.apply_stmt

let wait_until ?(timeout = 10.) ?(poll = 0.02) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    pred ()
    || (Unix.gettimeofday () < deadline
       &&
       (Thread.delay poll;
        go ()))
  in
  go ()

(* A small committed workload in a durable dir; returns the WAL bytes
   and the primary's final fingerprint. *)
let build_wal dir =
  let db, _ = Db.open_durable ~sync:Wal.Always ~dir () in
  ignore (Db.exec db "CREATE TABLE r (a INT PRIMARY KEY, b CHAR(8))");
  for i = 1 to 8 do
    ignore (Db.exec db (Printf.sprintf "INSERT INTO r VALUES (%d, 'v%d')" i i))
  done;
  ignore (Db.exec db "UPDATE r SET b = 'upd' WHERE a > 5");
  ignore (Db.exec db "DELETE FROM r WHERE a = 1");
  let fp = fingerprint (Db.catalog db) in
  Db.close_durable db;
  (read_file (Recovery.wal_path ~dir), fp)

(* --- Stream parser units ------------------------------------------------- *)

let check_feed_chunked () =
  with_dir (fun dir ->
      let wal, fp = build_wal dir in
      List.iter
        (fun chunk ->
          let r = Replica.create (Catalog.create ()) ~generation:1 ~epoch:0 ~offset:0 in
          let pos = ref 0 in
          while !pos < String.length wal do
            let n = min chunk (String.length wal - !pos) in
            (match Replica.feed r (String.sub wal !pos n) with
            | Ok () -> ()
            | Error (Replica.Stream_corrupt m) ->
              Alcotest.failf "chunk=%d: corrupt: %s" chunk m
            | Error (Replica.Apply_failed m) ->
              Alcotest.failf "chunk=%d: apply: %s" chunk m);
            pos := !pos + n
          done;
          Alcotest.(check int)
            (Printf.sprintf "chunk=%d confirms the whole log" chunk)
            (String.length wal) (Replica.applied_offset r);
          Alcotest.(check string)
            (Printf.sprintf "chunk=%d state matches primary" chunk)
            fp
            (fingerprint (Replica.catalog r)))
        [ 1; 7; 64 * 1024 ])

let check_feed_bitflip_resume () =
  with_dir (fun dir ->
      let wal, fp = build_wal dir in
      (* corrupt one bit past the midpoint; the CRC must catch it *)
      let flip_at = String.length wal * 3 / 5 in
      let bad = Bytes.of_string wal in
      Bytes.set bad flip_at (Char.chr (Char.code (Bytes.get bad flip_at) lxor 0x10));
      let r = Replica.create (Catalog.create ()) ~generation:1 ~epoch:0 ~offset:0 in
      (match Replica.feed r (Bytes.to_string bad) with
      | Error (Replica.Stream_corrupt _) -> ()
      | Ok () -> Alcotest.fail "bit flip must not apply cleanly"
      | Error (Replica.Apply_failed m) -> Alcotest.failf "want corrupt, got apply: %s" m);
      let confirmed = Replica.applied_offset r in
      Alcotest.(check bool) "stopped at a boundary before the flip" true
        (confirmed <= flip_at);
      (* reconnect: drop the pending fragment, resume from the confirmed
         offset with clean bytes — byte-for-byte convergence *)
      Replica.reset_stream r;
      (match
         Replica.feed r (String.sub wal confirmed (String.length wal - confirmed))
       with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "clean resume must apply");
      Alcotest.(check int) "caught up" (String.length wal) (Replica.applied_offset r);
      Alcotest.(check string) "state matches primary" fp
        (fingerprint (Replica.catalog r)))

let check_feed_generation_mismatch () =
  with_dir (fun dir ->
      let wal, _ = build_wal dir in
      let r = Replica.create (Catalog.create ()) ~generation:999 ~epoch:0 ~offset:0 in
      match Replica.feed r wal with
      | Error (Replica.Apply_failed _) -> ()
      | Ok () -> Alcotest.fail "a foreign generation must not apply"
      | Error (Replica.Stream_corrupt m) ->
        Alcotest.failf "want apply-failed, got corrupt: %s" m)

(* A shipped batch that breaks a unique key is an apply failure the
   caller can act on, not an exception that kills the follower. *)
let check_feed_constraint_violation () =
  let frames records = String.concat "" (List.map Wal.frame records) in
  let insert = Wal.Insert { table = "u"; cells = [| "1" |] } in
  let stream =
    frames
      [ Wal.Generation { gen = 1; epoch = 0 };
        Wal.Create_table
          { table = "u";
            columns =
              [ Tip_storage.Schema.make_column ~not_null:false
                  ~primary_key:true "a" Tip_storage.Schema.T_int ] };
        Wal.Commit None;
        insert;
        Wal.Commit None;
        insert;
        Wal.Commit None ]
  in
  let r = Replica.create (Catalog.create ()) ~generation:1 ~epoch:0 ~offset:0 in
  (match Replica.feed r stream with
  | Error (Replica.Apply_failed _) -> ()
  | Ok () -> Alcotest.fail "a duplicate key must not apply"
  | Error (Replica.Stream_corrupt m) ->
    Alcotest.failf "want apply-failed, got corrupt: %s" m);
  Alcotest.(check int) "the batches before it applied" 2
    (Replica.applied_commits r)

(* One log, three readers: at every byte cut, crash recovery of the
   truncated file, a replica fed the same bytes in random chunks, and a
   restore with that tail leave the same snapshot and batch count, and
   that state is the primary's after exactly that many commits. The
   log holds DDL, DML, WITH HISTORY rows, a multi-statement
   transaction and a cross-partition move. *)
let check_readers_agree_at_every_cut () =
  with_dir (fun dir ->
      with_dir (fun bdir ->
          Tip_blade.Values.register_types ();
          let db, _ = Db.open_durable ~sync:Wal.Always ~dir () in
          Tip_blade.Blade.install db;
          (* one commit each *)
          let commits =
            [ [ "CREATE TABLE h (a INT PRIMARY KEY, b CHAR(8)) WITH HISTORY" ];
              [ "INSERT INTO h VALUES (1, 'one'), (2, 'two')" ];
              [ "UPDATE h SET b = 'uno' WHERE a = 1" ];
              [ "CREATE TABLE p (id INT, valid Element) PARTITION BY RANGE \
                 (valid) (PARTITION y20 FOR VALUES FROM '2020-01-01' TO \
                 '2021-01-01', PARTITION y21 FOR VALUES FROM '2021-01-01' TO \
                 '2022-01-01', PARTITION pd DEFAULT)" ];
              [ "INSERT INTO p VALUES (1, '{[2020-03-01, 2020-06-01]}')" ];
              [ "BEGIN";
                "DELETE FROM h WHERE a = 2";
                "INSERT INTO p VALUES (2, '{[2021-03-01, 2021-06-01]}')";
                "COMMIT" ];
              [ "UPDATE p SET valid = '{[2021-05-01, 2021-07-01]}' WHERE id = 1" ];
              [ "CREATE INDEX h_b ON h (b)" ] ]
          in
          let empty = fingerprint (Db.catalog db) in
          let prefixes =
            Array.of_list
              (empty
              :: List.map
                   (fun stmts ->
                     List.iter (fun sql -> ignore (Db.exec db sql)) stmts;
                     fingerprint (Db.catalog db))
                   commits)
          in
          Db.close_durable db;
          let wal = read_file (Recovery.wal_path ~dir) in
          let snapshot = read_file (Recovery.snapshot_path ~dir) in
          Tip_storage.Archive.write_backup ~dir:bdir ~snapshot
            { Tip_storage.Archive.o_gen = 1; o_offset = 0; o_epoch = 0;
              o_asof = None };
          let render catalog =
            Persist.snapshot_string ~wal_gen:1 ~epoch:0 catalog
          in
          let rng = Random.State.make [| 25 |] in
          for cut = 0 to String.length wal do
            let bytes = String.sub wal 0 cut in
            Out_channel.with_open_bin (Recovery.wal_path ~dir) (fun oc ->
                output_string oc bytes);
            let recovered, info = Recovery.recover ~dir in
            let r =
              Replica.create
                (fst (Persist.load_string snapshot))
                ~generation:1 ~epoch:0 ~offset:0
            in
            let pos = ref 0 in
            while !pos < cut do
              let n = min (1 + Random.State.int rng 97) (cut - !pos) in
              (match Replica.feed r (String.sub bytes !pos n) with
              | Ok () -> ()
              | Error _ -> Alcotest.failf "cut %d: the replica refused" cut);
              pos := !pos + n
            done;
            let restored, rinfo =
              Tip_storage.Archive.restore ~backup:bdir
                ~tail:(Recovery.wal_path ~dir) ()
            in
            let want = render recovered in
            let batches = info.Recovery.replayed_batches in
            if
              render (Replica.catalog r) <> want
              || render restored <> want
              || Replica.applied_commits r <> batches
              || rinfo.Tip_storage.Archive.r_applied_batches <> batches
              || fingerprint recovered <> prefixes.(batches)
            then
              Alcotest.failf
                "cut %d: recovery %d, replica %d, restore %d batch(es)" cut
                batches (Replica.applied_commits r)
                rinfo.Tip_storage.Archive.r_applied_batches
          done;
          Alcotest.(check int) "the whole log replays"
            (List.length commits)
            (snd (Recovery.recover ~dir)).Recovery.replayed_batches))

(* --- Every_n flush satellites -------------------------------------------- *)

let check_every_n_flush_on_close () =
  with_dir (fun dir ->
      let db, _ = Db.open_durable ~sync:(Wal.Every_n 50) ~dir () in
      ignore (Db.exec db "CREATE TABLE e (a INT PRIMARY KEY)");
      for i = 1 to 5 do
        ignore (Db.exec db (Printf.sprintf "INSERT INTO e VALUES (%d)" i))
      done;
      (* far fewer than 50 commits: the tail is pending, close must
         flush it *)
      Db.close_durable db;
      let db2, _ = Db.open_durable ~dir () in
      (match Db.exec db2 "SELECT COUNT(*) FROM e" with
      | Db.Rows { rows = [ [| Tip_storage.Value.Int 5 |] ]; _ } -> ()
      | r -> Alcotest.failf "pending tail lost on close: %s" (Db.render_result r));
      Db.close_durable db2)

let check_every_n_flush_on_checkpoint () =
  with_dir (fun dir ->
      let db, _ = Db.open_durable ~sync:(Wal.Every_n 50) ~dir () in
      ignore (Db.exec db "CREATE TABLE e (a INT PRIMARY KEY)");
      for i = 1 to 6 do
        ignore (Db.exec db (Printf.sprintf "INSERT INTO e VALUES (%d)" i))
      done;
      (* CHECKPOINT must fsync the pending tail BEFORE attempting the
         snapshot: if the snapshot rename then dies, recovery still has
         every commit in the old-generation log *)
      Failpoint.reset ();
      Failpoint.arm ~site:"snapshot.rename" ~hit:1 Failpoint.Crash_now;
      (match Db.exec db "CHECKPOINT" with
      | exception Failpoint.Crash _ -> ()
      | _ -> Alcotest.fail "armed rename must crash the checkpoint");
      Failpoint.reset ();
      let db2, _ = Db.open_durable ~dir () in
      (match Db.exec db2 "SELECT COUNT(*) FROM e" with
      | Db.Rows { rows = [ [| Tip_storage.Value.Int 6 |] ]; _ } -> ()
      | r ->
        Alcotest.failf "pending tail lost across failed checkpoint: %s"
          (Db.render_result r));
      Db.close_durable db2)

(* --- Error classification ------------------------------------------------ *)

let check_error_codes () =
  Alcotest.(check bool) "READ_ONLY" true
    (Remote.error_code "READ_ONLY: nope" = Remote.Read_only);
  Alcotest.(check bool) "STALE_READ" true
    (Remote.error_code "STALE_READ: 2s behind" = Remote.Stale_read);
  Alcotest.(check bool) "other" true
    (Remote.error_code "GEN_CHANGED: x" = Remote.Other)

(* --- Live primary/replica ------------------------------------------------ *)

(* A durable primary served on an ephemeral (or fixed) port, torn down
   with the test. *)
let with_primary ?port dir f =
  let db, _ = Db.open_durable ~sync:Wal.Always ~dir () in
  let server = Server.listen ~port:(Option.value port ~default:0) db in
  Server.serve_in_background server;
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      try Db.close_durable db with _ -> ())
    (fun () -> f db server (Server.port server))

(* A replication client on a fresh in-memory database, with the lock
   exposed so the test can fingerprint safely. *)
let start_replica ~port () =
  let db = Db.create () in
  Db.set_read_only db true;
  let lock = Tip_server.Rwlock.create () in
  let repl = Replication.start ~lock ~host:"127.0.0.1" ~port db in
  (db, lock, repl)

let locked_fingerprint lock db =
  Tip_server.Rwlock.with_shared lock (fun () -> fingerprint (Db.catalog db))

let converged ~lock ~rdb ~pdb repl () =
  Replication.state repl = "streaming"
  && Replication.lag_bytes repl = 0
  && String.equal (locked_fingerprint lock rdb) (fingerprint (Db.catalog pdb))

let check_e2e_convergence_read_only () =
  with_dir (fun dir ->
      with_primary dir (fun pdb pserver port ->
          let rdb, lock, repl = start_replica ~port () in
          Fun.protect ~finally:(fun () -> Replication.stop repl) (fun () ->
              let c = Remote.connect ~port () in
              ignore (Remote.execute c "CREATE TABLE t (a INT PRIMARY KEY, b CHAR(8))");
              for i = 1 to 20 do
                ignore
                  (Remote.execute c
                     (Printf.sprintf "INSERT INTO t VALUES (%d, 'x%d')" i i))
              done;
              Alcotest.(check bool) "replica converges" true
                (wait_until (converged ~lock ~rdb ~pdb repl));
              Alcotest.(check int) "primary sees one subscriber" 1
                (Server.replica_count pserver);
              (* writes are refused with the typed READ_ONLY class *)
              (match Db.exec rdb "INSERT INTO t VALUES (99, 'w')" with
              | exception Db.Error msg ->
                Alcotest.(check bool) "typed READ_ONLY" true
                  (String.length msg >= 10 && String.sub msg 0 10 = "READ_ONLY:")
              | r -> Alcotest.failf "replica accepted a write: %s" (Db.render_result r));
              (* reads still flow *)
              (match Db.exec rdb "SELECT COUNT(*) FROM t" with
              | Db.Rows { rows = [ [| Tip_storage.Value.Int 20 |] ]; _ } -> ()
              | r -> Alcotest.failf "replica read: %s" (Db.render_result r));
              (* the primary's lag view has our subscriber; acks arrive
                 asynchronously, so poll until it reads caught up *)
              Alcotest.(check bool) "tip_stat_replication reports caught_up" true
                (wait_until (fun () ->
                     match
                       Remote.execute c
                         "SELECT state, lag_bytes FROM tip_stat_replication \
                          WHERE role = 'replica'"
                     with
                     | Db.Rows
                         { rows =
                             [ [| Tip_storage.Value.Str "caught_up";
                                  Tip_storage.Value.Int 0 |] ];
                           _ } ->
                       true
                     | _ -> false
                     | exception _ -> false));
              Remote.close c)))

let check_e2e_generation_change () =
  with_dir (fun dir ->
      with_primary dir (fun pdb _ port ->
          let rdb, lock, repl = start_replica ~port () in
          Fun.protect ~finally:(fun () -> Replication.stop repl) (fun () ->
              let c = Remote.connect ~port () in
              ignore (Remote.execute c "CREATE TABLE g (a INT PRIMARY KEY)");
              ignore (Remote.execute c "INSERT INTO g VALUES (1)");
              Alcotest.(check bool) "initial convergence" true
                (wait_until (converged ~lock ~rdb ~pdb repl));
              (* a checkpoint starts a new WAL generation: the stream
                 must force a fresh bootstrap, not diverge *)
              ignore (Remote.execute c "CHECKPOINT");
              ignore (Remote.execute c "INSERT INTO g VALUES (2)");
              Alcotest.(check bool) "re-converges after gen change" true
                (wait_until (converged ~lock ~rdb ~pdb repl));
              Alcotest.(check bool) "re-bootstrapped" true
                (Replication.bootstraps repl >= 2);
              Remote.close c)))

let check_e2e_primary_loss_and_return () =
  with_dir (fun dir ->
      let port = free_port () in
      let rdb, lock, repl = ref None, Tip_server.Rwlock.create (), ref None in
      Fun.protect
        ~finally:(fun () -> Option.iter Replication.stop !repl)
        (fun () ->
          with_primary ~port dir (fun pdb _ pport ->
              let db = Db.create () in
              Db.set_read_only db true;
              rdb := Some db;
              repl :=
                Some (Replication.start ~lock ~host:"127.0.0.1" ~port:pport db);
              let c = Remote.connect ~port:pport () in
              ignore (Remote.execute c "CREATE TABLE p (a INT PRIMARY KEY)");
              ignore (Remote.execute c "INSERT INTO p VALUES (1)");
              Alcotest.(check bool) "initial convergence" true
                (wait_until
                   (converged ~lock ~rdb:db ~pdb (Option.get !repl)));
              Remote.close c);
          (* the primary is gone: reads keep working, staleness grows *)
          let db = Option.get !rdb and r = Option.get !repl in
          Thread.delay 0.8;
          (match Db.exec db "SELECT COUNT(*) FROM p" with
          | Db.Rows { rows = [ [| Tip_storage.Value.Int 1 |] ]; _ } -> ()
          | res -> Alcotest.failf "read after primary loss: %s" (Db.render_result res));
          Alcotest.(check bool) "staleness grows without a primary" true
            (Replication.staleness_seconds r > 0.5);
          Alcotest.(check bool) "reports disconnection" true
            (wait_until ~timeout:3. (fun () ->
                 Replication.state r = "disconnected"));
          (* the primary returns on the same port: the client reconnects
             by itself and converges again *)
          with_primary ~port dir (fun pdb _ _ ->
              let c = Remote.connect ~port () in
              ignore (Remote.execute c "INSERT INTO p VALUES (2)");
              Alcotest.(check bool) "re-converges after primary returns" true
                (wait_until ~timeout:15. (converged ~lock ~rdb:db ~pdb r));
              Remote.close c)))

(* A durable primary and a served replica streaming from it, both with
   the blade installed. *)
let with_routed_pair f =
  with_dir (fun dir ->
      let pport = free_port () in
      with_primary ~port:pport dir (fun pdb _ _ ->
          let rdb, lock, repl = start_replica ~port:pport () in
          Tip_blade.Blade.install pdb;
          Tip_blade.Blade.install rdb;
          let rserver = Server.listen ~port:0 rdb in
          Server.set_staleness_probe rserver (fun () ->
              Replication.staleness_seconds repl);
          Server.serve_in_background rserver;
          Fun.protect
            ~finally:(fun () ->
              Server.stop rserver;
              Replication.stop repl)
            (fun () ->
              f ~pport ~rport:(Server.port rserver)
                ~converged:(converged ~lock ~rdb ~pdb repl))))

let check_e2e_routed_reads () =
  with_routed_pair (fun ~pport ~rport ~converged ->
      (* over the wire, the replica's refusal is typed *)
      let rc = Remote.connect ~port:rport () in
      (match Remote.execute rc "CREATE TABLE w (a INT)" with
      | exception Remote.Remote_error msg ->
        Alcotest.(check bool) "wire READ_ONLY" true
          (Remote.error_code msg = Remote.Read_only)
      | r -> Alcotest.failf "replica accepted a write: %s" (Db.render_result r));
      Remote.close rc;
      let routed =
        Remote.connect ~max_staleness:30. ~on_stale:`Error
          ~replica:("127.0.0.1", rport) ~port:pport ()
      in
      (* writes go to the primary *)
      ignore (Remote.execute routed "CREATE TABLE t (a INT PRIMARY KEY)");
      ignore (Remote.execute routed "INSERT INTO t VALUES (7)");
      Alcotest.(check bool) "replica converges" true (wait_until converged);
      (* reads route to the replica and see the replicated row *)
      (match Remote.execute routed "SELECT a FROM t" with
      | Db.Rows { rows = [ [| Tip_storage.Value.Int 7 |] ]; _ } -> ()
      | r -> Alcotest.failf "routed read: %s" (Db.render_result r));
      Alcotest.(check bool) "replica link in use" true (Remote.on_replica routed);
      Remote.close routed)

(* Inside a transaction every statement goes to the primary, so a read
   sees the transaction's own uncommitted row. *)
let check_routed_transaction_reads_its_writes () =
  with_routed_pair (fun ~pport ~rport ~converged ->
      let routed = Remote.connect ~replica:("127.0.0.1", rport) ~port:pport () in
      ignore (Remote.execute routed "CREATE TABLE t (a INT PRIMARY KEY)");
      Alcotest.(check bool) "replica converges" true (wait_until converged);
      ignore (Remote.execute routed "BEGIN");
      ignore (Remote.execute routed "INSERT INTO t VALUES (1)");
      (match Remote.execute routed "SELECT a FROM t" with
      | Db.Rows { rows = [ [| Tip_storage.Value.Int 1 |] ]; _ } -> ()
      | r -> Alcotest.failf "the transaction's own row: %s" (Db.render_result r));
      ignore (Remote.execute routed "COMMIT");
      Remote.close routed)

(* SET NOW reaches the replica too, so routed reads share the session's
   clock. *)
let check_routed_settings_reach_the_replica () =
  with_routed_pair (fun ~pport ~rport ~converged:_ ->
      let routed = Remote.connect ~replica:("127.0.0.1", rport) ~port:pport () in
      ignore (Remote.execute routed "SET NOW = '1999-01-01'");
      (match Remote.execute routed "SELECT 'NOW'::Instant::Chronon::CHAR" with
      | Db.Rows { rows = [ [| Tip_storage.Value.Str s |] ]; _ } ->
        Alcotest.(check string) "routed read's NOW" "1999-01-01" (String.trim s)
      | r -> Alcotest.failf "NOW: %s" (Db.render_result r));
      Alcotest.(check bool) "read on the replica" true (Remote.on_replica routed);
      Remote.close routed)

let check_e2e_stale_read_bound () =
  with_dir (fun dir ->
      let pport = free_port () in
      let rdb, lock, repl = ref None, Tip_server.Rwlock.create (), ref None in
      let rserver = ref None in
      Fun.protect
        ~finally:(fun () ->
          Option.iter Server.stop !rserver;
          Option.iter Replication.stop !repl)
        (fun () ->
          with_primary ~port:pport dir (fun pdb _ _ ->
              let db = Db.create () in
              Db.set_read_only db true;
              rdb := Some db;
              repl :=
                Some (Replication.start ~lock ~host:"127.0.0.1" ~port:pport db);
              let s = Server.listen ~port:0 db in
              Server.set_staleness_probe s (fun () ->
                  Replication.staleness_seconds (Option.get !repl));
              Server.serve_in_background s;
              rserver := Some s;
              let c = Remote.connect ~port:pport () in
              ignore (Remote.execute c "CREATE TABLE t (a INT PRIMARY KEY)");
              ignore (Remote.execute c "INSERT INTO t VALUES (1)");
              Alcotest.(check bool) "converges" true
                (wait_until
                   (converged ~lock ~rdb:db ~pdb (Option.get !repl)));
              Remote.close c);
          (* primary gone: the replica's staleness passes the bound and
             on_stale=`Error surfaces it instead of silently serving *)
          Thread.delay 0.6;
          let rport = Server.port (Option.get !rserver) in
          let routed =
            Remote.connect ~max_staleness:0.2 ~on_stale:`Error
              ~replica:("127.0.0.1", rport) ~port:rport ()
          in
          (match Remote.execute routed "SELECT a FROM t" with
          | exception Remote.Remote_error msg ->
            Alcotest.(check bool) "typed STALE_READ" true
              (Remote.error_code msg = Remote.Stale_read)
          | _r -> Alcotest.fail "stale replica served a bounded read");
          Remote.close routed))

(* --- Differential replication fuzz --------------------------------------- *)

(* One seed: a random workload (the durability fuzz generator, with
   BEGIN/COMMIT, DDL, and CHECKPOINTs that change the WAL generation
   mid-stream) runs against a served durable primary while a replica
   streams with a fault armed on the wire; halfway through, the replica
   is either disconnected (resume path) or killed and restarted
   (re-bootstrap path). The replica must converge to exactly the
   primary's committed state. *)
let fuzz_faults =
  [| Failpoint.Drop;
     Failpoint.Delay 0.05;
     Failpoint.Bit_flip 13;
     Failpoint.Short_write 23 |]

let run_fuzz_seed seed =
  with_dir (fun dir ->
      with_primary dir (fun pdb _ port ->
          Failpoint.reset ();
          Failpoint.arm ~site:"repl.send"
            ~hit:(1 + (seed mod 3))
            fuzz_faults.(seed mod Array.length fuzz_faults);
          if seed mod 3 = 0 then
            (* lose the bootstrap itself once, too *)
            Failpoint.arm ~site:"repl.snapshot" ~hit:1 Failpoint.Drop;
          let rdb = Db.create () in
          Db.set_read_only rdb true;
          let lock = Tip_server.Rwlock.create () in
          let repl =
            ref (Replication.start ~lock ~host:"127.0.0.1" ~port rdb)
          in
          Fun.protect
            ~finally:(fun () ->
              Replication.stop !repl;
              Failpoint.reset ())
            (fun () ->
              let trace = gen_trace seed in
              let half = List.length trace / 2 in
              let c = Remote.connect ~port () in
              List.iteri
                (fun i sql ->
                  (match Remote.execute c sql with
                  | _ -> ()
                  | exception Remote.Remote_error _ -> ());
                  if i = half then
                    if seed mod 2 = 0 then begin
                      (* kill the replica mid-stream and restart it:
                         the fresh client must re-bootstrap *)
                      Replication.stop !repl;
                      repl :=
                        Replication.start ~lock ~host:"127.0.0.1" ~port rdb
                    end
                    else Replication.inject_disconnect !repl)
                trace;
              Remote.close c;
              (* let any armed stream fault fire, then require clean
                 convergence *)
              if
                not
                  (wait_until ~timeout:20.
                     (converged ~lock ~rdb ~pdb !repl))
              then
                Alcotest.failf
                  "seed %d: no convergence (state %s, lag %d, %d bootstraps, \
                   %d reconnects)"
                  seed
                  (Replication.state !repl)
                  (Replication.lag_bytes !repl)
                  (Replication.bootstraps !repl)
                  (Replication.reconnects !repl))))

let check_replication_fuzz () =
  for seed = 1 to 6 do
    run_fuzz_seed seed
  done

let _ = apply_stmt

let suite =
  [ Alcotest.test_case "feed converges at any chunking" `Quick check_feed_chunked;
    Alcotest.test_case "bit flip detected, resume converges" `Quick
      check_feed_bitflip_resume;
    Alcotest.test_case "foreign generation refuses to apply" `Quick
      check_feed_generation_mismatch;
    Alcotest.test_case "a duplicate key is an apply failure" `Quick
      check_feed_constraint_violation;
    Alcotest.test_case "three readers agree at every cut" `Quick
      check_readers_agree_at_every_cut;
    Alcotest.test_case "Every_n tail flushed on close" `Quick
      check_every_n_flush_on_close;
    Alcotest.test_case "Every_n tail flushed by CHECKPOINT" `Quick
      check_every_n_flush_on_checkpoint;
    Alcotest.test_case "READ_ONLY / STALE_READ classification" `Quick
      check_error_codes;
    Alcotest.test_case "live convergence, read-only, lag table" `Quick
      check_e2e_convergence_read_only;
    Alcotest.test_case "generation change forces re-bootstrap" `Quick
      check_e2e_generation_change;
    Alcotest.test_case "primary loss: reads keep flowing, staleness grows"
      `Quick check_e2e_primary_loss_and_return;
    Alcotest.test_case "routed reads hit the replica" `Quick
      check_e2e_routed_reads;
    Alcotest.test_case "routed transaction reads its own writes" `Quick
      check_routed_transaction_reads_its_writes;
    Alcotest.test_case "routed SET NOW reaches the replica" `Quick
      check_routed_settings_reach_the_replica;
    Alcotest.test_case "max_staleness bounds routed reads" `Quick
      check_e2e_stale_read_bound;
    Alcotest.test_case "differential replication fuzz (6 seeds)" `Quick
      check_replication_fuzz ]
