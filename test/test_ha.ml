(* High-availability tests (DESIGN.md §15): WAL archiving and online
   backup, point-in-time recovery down to single commits, crash fuzz
   with archive-I/O failpoints (restore must land byte-for-byte on the
   state the node itself recovered), the replica's pending-tail cap,
   replica promotion over the wire with epoch fencing of the rejoining
   ex-primary (split-brain: the rogue write is discarded), client
   failover across a promotion, and a differential failover fuzz —
   random workloads switched to a promoted replica mid-trace must end
   byte-for-byte with a single-node reference run. *)

module Db = Tip_engine.Database
module Catalog = Tip_storage.Catalog
module Wal = Tip_storage.Wal
module Replica = Tip_storage.Replica
module Failpoint = Tip_storage.Failpoint
module Recovery = Tip_storage.Recovery
module Archive = Tip_storage.Archive
module Chronon = Tip_core.Chronon
module Server = Tip_server.Server
module Remote = Tip_server.Remote
module Replication = Tip_server.Replication

let with_dir = Test_durability.with_dir
let fingerprint = Test_durability.fingerprint
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

let exec db sql =
  match Db.exec db sql with
  | r -> r
  | exception Db.Error msg -> Alcotest.failf "%s: %s" sql msg

let day d = Printf.sprintf "2000-06-%02d" d
let day_secs d = Chronon.to_unix_seconds (Chronon.of_string_exn (day d))

(* --- Archiving + PITR ---------------------------------------------------- *)

(* Commits stamped with SET NOW instants, a backup mid-history, then a
   restore to every instant must reproduce exactly that prefix — and to
   an instant older than the backup's base must be refused. *)
let check_pitr_per_commit () =
  with_dir (fun dir ->
      with_dir (fun adir ->
          with_dir (fun bdir ->
              Tip_blade.Values.register_types ();
              let db, _ =
                Db.open_durable ~sync:Wal.Always ~archive_dir:adir ~dir ()
              in
              Tip_blade.Blade.install db;
              ignore (exec db (Printf.sprintf "SET NOW = '%s'" (day 1)));
              ignore
                (exec db "CREATE TABLE p (a INT PRIMARY KEY, b CHAR(8))");
              ignore (exec db "INSERT INTO p VALUES (1, 'd1')");
              ignore (exec db (Printf.sprintf "SET NOW = '%s'" (day 2)));
              ignore (exec db "INSERT INTO p VALUES (2, 'd2')");
              ignore (exec db "CHECKPOINT");
              let fp2 = fingerprint (Db.catalog db) in
              (match
                 exec db (Printf.sprintf "BACKUP TO '%s'"
                            (String.concat "" [ bdir ]))
               with
              | Db.Message m ->
                Alcotest.(check bool) "backup reports its origin" true
                  (try
                     ignore
                       (Str.search_forward (Str.regexp_string "BACKUP complete")
                          m 0);
                     true
                   with Not_found -> false)
              | r -> Alcotest.failf "BACKUP TO: %s" (Db.render_result r));
              ignore (exec db (Printf.sprintf "SET NOW = '%s'" (day 3)));
              ignore (exec db "INSERT INTO p VALUES (3, 'd3')");
              ignore (exec db "CHECKPOINT");
              let fp3 = fingerprint (Db.catalog db) in
              ignore (exec db (Printf.sprintf "SET NOW = '%s'" (day 4)));
              ignore (exec db "INSERT INTO p VALUES (4, 'd4')");
              ignore (exec db "UPDATE p SET b = 'upd' WHERE a = 1");
              let fp4 = fingerprint (Db.catalog db) in
              Db.close_durable db;
              let tail = Recovery.wal_path ~dir in
              let restore_to until =
                Archive.restore ~backup:bdir ~archive_dir:adir ~tail ?until ()
              in
              (* to each instant: exactly the applied-commit prefix *)
              let catalog, info = restore_to (Some (day_secs 2)) in
              Alcotest.(check string) "until day 2 = prefix through day 2" fp2
                (fingerprint catalog);
              Alcotest.(check bool) "day-2 target reached" true
                info.Archive.r_reached_target;
              Alcotest.(check (list int)) "no chain gaps" []
                info.Archive.r_missing_gens;
              let catalog, info = restore_to (Some (day_secs 3)) in
              Alcotest.(check string) "until day 3 = prefix through day 3" fp3
                (fingerprint catalog);
              Alcotest.(check bool) "day-3 target reached" true
                info.Archive.r_reached_target;
              let catalog, info = restore_to (Some (day_secs 4)) in
              Alcotest.(check string) "until day 4 = full history" fp4
                (fingerprint catalog);
              Alcotest.(check bool)
                "history ends before a day-4 stop is needed" false
                info.Archive.r_reached_target;
              (* no target: everything, chain + live tail *)
              let catalog, info = restore_to None in
              Alcotest.(check string) "no target = full history" fp4
                (fingerprint catalog);
              Alcotest.(check bool) "archived segments replayed" true
                (info.Archive.r_segments >= 1);
              Alcotest.(check bool) "live tail replayed" true
                info.Archive.r_tail_replayed;
              Alcotest.(check bool) "last commit instant carried" true
                (info.Archive.r_last_commit_at = Some (day_secs 4));
              (* a target older than the backup's base is refused *)
              match restore_to (Some (day_secs 1)) with
              | _ -> Alcotest.fail "expected TARGET_TOO_OLD"
              | exception Archive.Archive_error msg ->
                Alcotest.(check bool) "typed TARGET_TOO_OLD" true
                  (String.length msg >= 15
                  && String.equal (String.sub msg 0 15) "TARGET_TOO_OLD:"))))

(* --- Crash fuzz with archive-I/O failpoints ------------------------------ *)

let archive_fuzz_sites =
  [| "wal.write"; "snapshot.rename"; "archive.write"; "archive.fsync";
     "archive.rename" |]

(* One (trace, crash point): run against a durable+archiving database
   with a failpoint armed, recover (which re-seals the crashed
   generation), then restore backup+chain+tail — it must land
   byte-for-byte on the state the node itself recovered. *)
let run_archive_crash_case ~trace ~case =
  with_dir (fun dir ->
      with_dir (fun adir ->
          with_dir (fun bdir ->
              Failpoint.reset ();
              let db, _ =
                Db.open_durable ~sync:Wal.Always ~checkpoint_every:6
                  ~archive_dir:adir ~dir ()
              in
              let arr = Array.of_list trace in
              (* the CREATEs land unfaulted, then the backup anchors the
                 chain *)
              apply_stmt db arr.(0);
              apply_stmt db arr.(1);
              ignore (Db.backup db ~dir:bdir);
              let site =
                archive_fuzz_sites.(case mod Array.length archive_fuzz_sites)
              in
              let hit = 1 + (case mod 5) in
              let action =
                (* only crashing actions: a silent bit flip would leave
                   the in-memory primary ahead of its own log, and a
                   later checkpoint folds that into the snapshot — a
                   divergence restore is not supposed to repair *)
                if case mod 2 = 0 then Failpoint.Crash_now
                else Failpoint.Short_write (3 + (case mod 11))
              in
              Failpoint.arm ~site ~hit action;
              (try
                 for i = 2 to Array.length arr - 1 do
                   apply_stmt db arr.(i)
                 done
               with Failpoint.Crash _ -> ());
              Failpoint.reset ();
              Db.close_durable db;
              (* recovery re-seals the generation the crash abandoned *)
              let db2, _ = Db.open_durable ~archive_dir:adir ~dir () in
              let recovered = fingerprint (Db.catalog db2) in
              Db.close_durable db2;
              let catalog, _ =
                Archive.restore ~backup:bdir ~archive_dir:adir
                  ~tail:(Recovery.wal_path ~dir) ()
              in
              Alcotest.(check string)
                (Printf.sprintf "restore == recovery (site %s, case %d)" site
                   case)
                recovered (fingerprint catalog))))

let check_archive_crash_fuzz () =
  let traces = 6 and points = 5 in
  for seed = 1 to traces do
    let trace = gen_trace (100 + seed) in
    for j = 0 to points - 1 do
      run_archive_crash_case ~trace ~case:((seed * points) + j)
    done
  done

(* --- Replica pending-tail cap -------------------------------------------- *)

let check_pending_tail_cap () =
  let frames records = String.concat "" (List.map Wal.frame records) in
  let filler i =
    Wal.Insert { table = "t"; cells = [| string_of_int i; String.make 64 'x' |] }
  in
  let uncommitted =
    frames
      (Wal.Generation { gen = 1; epoch = 0 }
      :: List.init 64 (fun i -> filler i))
  in
  (* an uncommitted tail beyond the cap is refused as corrupt (a
     primary that never ships a commit boundary would otherwise grow
     this buffer without bound) *)
  let r = Replica.create ~max_pending:1024 (Catalog.create ()) ~generation:1
      ~epoch:0 ~offset:0
  in
  (match Replica.feed r uncommitted with
  | Error (Replica.Stream_corrupt msg) ->
    Alcotest.(check bool) "names the cap" true
      (try
         ignore (Str.search_forward (Str.regexp_string "commit boundary") msg 0);
         true
       with Not_found -> false)
  | Ok () -> Alcotest.fail "oversized pending tail accepted"
  | Error (Replica.Apply_failed m) -> Alcotest.failf "unexpected: %s" m);
  (* the same volume with commit boundaries streams fine *)
  let committed =
    frames
      (Wal.Generation { gen = 1; epoch = 0 }
      :: List.concat_map
           (fun i ->
             [ Wal.Create_table
                 { table = Printf.sprintf "t%d" i;
                   columns =
                     [ Tip_storage.Schema.make_column ~not_null:false
                         ~primary_key:true "a" Tip_storage.Schema.T_int ] };
               Wal.Commit None ])
           (List.init 8 (fun i -> i)))
  in
  let r = Replica.create ~max_pending:1024 (Catalog.create ()) ~generation:1
      ~epoch:0 ~offset:0
  in
  match Replica.feed r committed with
  | Ok () ->
    Alcotest.(check int) "all batches applied" 8 (Replica.applied_commits r)
  | Error _ -> Alcotest.fail "commit-bounded stream refused"

(* --- Typed error classification ------------------------------------------ *)

let check_ha_error_codes () =
  Alcotest.(check bool) "STALE_EPOCH" true
    (Remote.error_code "STALE_EPOCH: fenced" = Remote.Stale_epoch);
  Alcotest.(check bool) "FAILOVER" true
    (Remote.error_code "FAILOVER: no primary" = Remote.Failover);
  Alcotest.(check bool) "READ_ONLY" true
    (Remote.error_code "READ_ONLY: nope" = Remote.Read_only);
  Alcotest.(check bool) "plain engine errors stay Other" true
    (Remote.error_code "no such table" = Remote.Other)

(* --- Promotion + epoch fencing over the wire ------------------------------ *)

let with_primary ?idle_timeout dir f =
  let db, _ = Db.open_durable ~sync:Wal.Always ~dir () in
  let server = Server.listen ?idle_timeout ~port:0 db in
  Server.serve_in_background server;
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      try Db.close_durable db with _ -> ())
    (fun () -> f db server (Server.port server))

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

let check_promotion_and_fencing () =
  with_dir (fun dirA ->
      with_dir (fun dirB ->
          with_primary dirA (fun pdb _pserver portA ->
              let rdb, lock, repl = start_replica ~port:portA () in
              (* these writes bypass the server's lock: a bootstrap
                 snapshot taken in the middle of one re-ships it *)
              Alcotest.(check bool) "replica streams before the writes" true
                (wait_until (fun () -> Replication.state repl = "streaming"));
              ignore (exec pdb "CREATE TABLE f (a INT PRIMARY KEY)");
              for i = 1 to 5 do
                ignore (exec pdb (Printf.sprintf "INSERT INTO f VALUES (%d)" i))
              done;
              Alcotest.(check bool) "replica converges first" true
                (wait_until (converged ~lock ~rdb ~pdb repl));
              (* serve the replica and promote it over the wire *)
              let serverB = Server.listen ~port:0 rdb in
              Server.serve_in_background serverB;
              Server.set_promote_handler serverB (fun () ->
                  Replication.promote repl ~dir:dirB ());
              let portB = Server.port serverB in
              Fun.protect
                ~finally:(fun () ->
                  Server.stop serverB;
                  try Db.close_durable rdb with _ -> ())
                (fun () ->
                  let cB = Remote.connect ~port:portB () in
                  Alcotest.(check bool) "replica role before promotion" true
                    (Remote.role cB = (`Replica, 0));
                  (* a PROMOTE race with an open stream is the normal
                     case in production; here the follower is idle *)
                  (match Remote.execute cB "PROMOTE" with
                  | Db.Message m ->
                    Alcotest.(check bool) "PROMOTE reports the new epoch" true
                      (try
                         ignore
                           (Str.search_forward
                              (Str.regexp_string "PROMOTE complete") m 0);
                         true
                       with Not_found -> false)
                  | r -> Alcotest.failf "PROMOTE: %s" (Db.render_result r));
                  Alcotest.(check bool) "primary role after promotion" true
                    (Remote.role cB = (`Primary, 1));
                  Alcotest.(check int) "epoch bumped" 1 (Db.epoch rdb);
                  (* the new primary takes writes *)
                  (match Remote.execute cB "INSERT INTO f VALUES (100)" with
                  | Db.Affected 1 -> ()
                  | r -> Alcotest.failf "write on new primary: %s"
                           (Db.render_result r));
                  (* split-brain: the old primary, not yet aware, still
                     accepts a rogue write... *)
                  ignore (exec pdb "INSERT INTO f VALUES (999)");
                  (* ...then rejoins and is fenced: its stale-epoch
                     subscription is refused, it demotes to a fresh
                     bootstrap, and the rogue write is discarded *)
                  Db.set_read_only pdb true;
                  let resume = Option.get (Db.replication_state pdb) in
                  let lock2 = Tip_server.Rwlock.create () in
                  let repl2 =
                    Replication.start ~lock:lock2 ~resume ~host:"127.0.0.1"
                      ~port:portB pdb
                  in
                  Fun.protect
                    ~finally:(fun () -> Replication.stop repl2)
                    (fun () ->
                      Alcotest.(check bool) "ex-primary fenced then converges"
                        true
                        (wait_until (fun () ->
                             Replication.fence_rejections repl2 >= 1
                             && Replication.state repl2 = "streaming"
                             && String.equal
                                  (locked_fingerprint lock2 pdb)
                                  (fingerprint (Db.catalog rdb))));
                      Alcotest.(check int) "rejoined under the new epoch" 1
                        (Replication.epoch repl2);
                      (match Db.exec pdb "SELECT COUNT(*) FROM f WHERE a = 999"
                       with
                      | Db.Rows
                          { rows = [ [| Tip_storage.Value.Int 0 |] ]; _ } ->
                        ()
                      | r ->
                        Alcotest.failf "rogue write survived the fence: %s"
                          (Db.render_result r));
                      match Db.exec pdb "SELECT COUNT(*) FROM f WHERE a = 100"
                      with
                      | Db.Rows
                          { rows = [ [| Tip_storage.Value.Int 1 |] ]; _ } ->
                        ()
                      | r ->
                        Alcotest.failf "new primary's write missing: %s"
                          (Db.render_result r));
                  Remote.close cB))))

(* --- Client failover ------------------------------------------------------ *)

(* A durable primary A (dropping sessions idle past [idle_timeout])
   and a streaming replica B, served and ready to promote. *)
let with_promotable ?idle_timeout f =
  with_dir (fun dirA ->
      with_dir (fun dirB ->
          with_primary ?idle_timeout dirA (fun pdb _pserver portA ->
              let rdb, lock, repl = start_replica ~port:portA () in
              let serverB = Server.listen ~port:0 rdb in
              Server.serve_in_background serverB;
              Server.set_promote_handler serverB (fun () ->
                  Replication.promote repl ~dir:dirB ());
              Fun.protect
                ~finally:(fun () ->
                  Server.stop serverB;
                  try Db.close_durable rdb with _ -> ())
                (fun () ->
                  f ~pdb ~rdb ~portA ~serverB ~portB:(Server.port serverB)
                    ~converged:(converged ~lock ~rdb ~pdb repl)))))

let promote serverB =
  match Server.promote serverB with
  | Ok (_, epoch) -> Alcotest.(check int) "epoch 1" 1 epoch
  | Error e -> Alcotest.fail e

let check_client_failover () =
  with_promotable (fun ~pdb ~rdb ~portA ~serverB ~portB ~converged ->
      let ha = Remote.connect ~port:portA ~group:[ ("127.0.0.1", portB) ] () in
      (match Remote.execute ha "CREATE TABLE c (a INT PRIMARY KEY)" with
      | Db.Message _ | Db.Affected _ -> ()
      | r -> Alcotest.failf "DDL via HA: %s" (Db.render_result r));
      (match Remote.execute ha "INSERT INTO c VALUES (1)" with
      | Db.Affected 1 -> ()
      | r -> Alcotest.failf "write via HA: %s" (Db.render_result r));
      Alcotest.(check int) "no failover yet" 0 (Remote.failovers ha);
      Alcotest.(check bool) "replica sees the write" true (wait_until converged);
      (* the primary is demoted under the client; the replica is
         promoted — the next write must follow *)
      Db.set_read_only pdb true;
      promote serverB;
      (match Remote.execute ha "INSERT INTO c VALUES (2)" with
      | Db.Affected 1 -> ()
      | r -> Alcotest.failf "write after failover: %s" (Db.render_result r));
      Alcotest.(check int) "one failover" 1 (Remote.failovers ha);
      Alcotest.(check int) "client tracked the new epoch" 1 (Remote.epoch ha);
      (match Db.exec rdb "SELECT COUNT(*) FROM c" with
      | Db.Rows { rows = [ [| Tip_storage.Value.Int 2 |] ]; _ } -> ()
      | r ->
        Alcotest.failf "failover write landed elsewhere: %s"
          (Db.render_result r));
      Remote.close ha;
      (* no writable member anywhere: a typed FAILOVER error *)
      match
        Remote.connect ~attempts:2 ~retry_delay:0.01 ~group:[] ~port:portA ()
      with
      | _ -> Alcotest.fail "expected FAILOVER"
      | exception Remote.Remote_error msg ->
        Alcotest.(check bool) "typed FAILOVER" true
          (Remote.error_code msg = Remote.Failover))

let now_of c =
  match Remote.execute c "SELECT 'NOW'::Instant::Chronon::CHAR" with
  | Db.Rows { rows = [ [| Tip_storage.Value.Str s |] ]; _ } -> String.trim s
  | r -> Alcotest.failf "NOW: %s" (Db.render_result r)

(* SET NOW reaches the new primary: the old one drops the idle session
   after the promotion, so the first read rediscovers the group. *)
let check_settings_follow_failover () =
  with_promotable ~idle_timeout:0.5
    (fun ~pdb ~rdb ~portA ~serverB ~portB ~converged ->
      Tip_blade.Blade.install pdb;
      Tip_blade.Blade.install rdb;
      Alcotest.(check bool) "replica converges" true (wait_until converged);
      let ha = Remote.connect ~port:portA ~group:[ ("127.0.0.1", portB) ] () in
      ignore (Remote.execute ha "SET NOW = '1999-01-01'");
      Alcotest.(check string) "NOW on the first primary" "1999-01-01" (now_of ha);
      Db.set_read_only pdb true;
      promote serverB;
      Unix.sleepf 1.0;
      Alcotest.(check string) "first read after the promotion" "1999-01-01"
        (now_of ha);
      Alcotest.(check int) "read on the promoted member" 1 (Remote.epoch ha);
      Remote.close ha)

let with_server ?idle_timeout db f =
  let server = Server.listen ?idle_timeout ~port:0 db in
  Server.serve_in_background server;
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () ->
      f (Server.port server))

let count c table =
  match Remote.execute c ("SELECT COUNT(*) FROM " ^ table) with
  | Db.Rows { rows = [ [| Tip_storage.Value.Int n |] ]; _ } -> n
  | r -> Alcotest.failf "count %s: %s" table (Db.render_result r)

(* An idle drop rolls the server-side transaction back; the statement
   that finds the session gone must raise, not run in autocommit. *)
let check_lost_transaction_not_replayed () =
  with_server ~idle_timeout:1.0 (Db.create ()) @@ fun port ->
  let ha = Remote.connect ~group:[] ~port () in
  ignore (Remote.execute ha "CREATE TABLE t (a INT PRIMARY KEY)");
  ignore (Remote.execute ha "BEGIN");
  ignore (Remote.execute ha "INSERT INTO t VALUES (1)");
  Unix.sleepf 2.5;
  (match Remote.execute ha "INSERT INTO t VALUES (2)" with
  | r -> Alcotest.failf "INSERT (2) ran: %s" (Db.render_result r)
  | exception Remote.Remote_error msg ->
    if Remote.error_code msg <> Remote.Session_lost then
      Alcotest.failf "not SESSION_LOST: %S" msg);
  (try ignore (Remote.execute ha "ROLLBACK") with Remote.Remote_error _ -> ());
  Alcotest.(check int) "neither row committed" 0 (count ha "t");
  Remote.close ha

(* A write that outlives the wire deadline has an unknown fate, so the
   group handle raises TIMEOUT instead of re-sending it. The write waits
   0.25 s at the server.exec failpoint, five times its 50 ms deadline,
   before it runs, however fast the host. *)
let check_timed_out_write_runs_at_most_once () =
  let db = Db.create () in
  ignore (exec db "CREATE TABLE sink (n INT)");
  with_server db @@ fun port ->
  let ha = Remote.connect ~deadline:0.05 ~group:[] ~port () in
  Failpoint.reset ();
  Failpoint.arm ~site:"server.exec" ~hit:1 (Failpoint.Delay 0.25);
  Fun.protect ~finally:Failpoint.reset @@ fun () ->
  (match Remote.execute ha "INSERT INTO sink VALUES (1)" with
  | r -> Alcotest.failf "the slow write beat its deadline: %s" (Db.render_result r)
  | exception Remote.Remote_error msg ->
    if Remote.error_code msg <> Remote.Timeout then
      Alcotest.failf "not a wire TIMEOUT: %S" msg);
  Remote.close ha;
  let c = Remote.connect ~port () in
  ignore (wait_until (fun () -> count c "sink" >= 1));
  Unix.sleepf 0.75;
  Alcotest.(check bool) "the write ran at most once" true (count c "sink" <= 1);
  Remote.close c

(* --- Differential failover fuzz ------------------------------------------ *)

(* Random workloads: run the first half on a primary, wait for the
   replica to catch up, demote the primary and promote the replica,
   run the rest there — the promoted node must end byte-for-byte with
   an in-memory reference that ran the whole trace single-node. *)
let check_failover_fuzz () =
  for seed = 1 to 4 do
    let trace = gen_trace (200 + seed) in
    with_dir (fun dirA ->
        with_dir (fun dirB ->
            let pdb, _ =
              Db.open_durable ~sync:Wal.Always ~checkpoint_every:9 ~dir:dirA ()
            in
            let serverA = Server.listen ~port:0 pdb in
            Server.serve_in_background serverA;
            let rdb, lock, repl =
              start_replica ~port:(Server.port serverA) ()
            in
            Fun.protect
              ~finally:(fun () ->
                Server.stop serverA;
                (try Db.close_durable pdb with _ -> ());
                try Db.close_durable rdb with _ -> ())
              (fun () ->
                let arr = Array.of_list trace in
                let n = Array.length arr in
                let split = (n / 2) + (seed mod 3) in
                let i = ref 0 in
                while !i < n && (!i < split || Db.in_transaction pdb) do
                  (* under the served lock, as a wire write would be:
                     a replica bootstrap must not pair a snapshot with
                     a later WAL offset *)
                  Tip_server.Rwlock.with_exclusive (Server.db_lock serverA)
                    (fun () -> apply_stmt pdb arr.(!i));
                  incr i;
                  (* a dropped connection mid-stream must not change the
                     outcome: the client resumes from its confirmed
                     offset *)
                  if !i = split / 2 then Replication.inject_disconnect repl
                done;
                let switch = !i in
                Alcotest.(check bool)
                  (Printf.sprintf "seed %d: caught up pre-switch" seed)
                  true
                  (wait_until (converged ~lock ~rdb ~pdb repl));
                Db.set_read_only pdb true;
                (match Replication.promote repl ~dir:dirB () with
                | Ok _ -> ()
                | Error e -> Alcotest.fail e);
                for j = switch to n - 1 do
                  apply_stmt rdb arr.(j)
                done;
                let reference = Db.create () in
                List.iter (apply_stmt reference) trace;
                Alcotest.(check string)
                  (Printf.sprintf "seed %d: promoted node == reference (switch \
                                   at %d/%d)"
                     seed switch n)
                  (fingerprint (Db.catalog reference))
                  (fingerprint (Db.catalog rdb)))))
  done

(* --- Statement surfaces --------------------------------------------------- *)

let check_statement_surfaces () =
  (* BACKUP TO needs durable storage *)
  let plain = Db.create () in
  (match Db.exec plain "BACKUP TO '/tmp/nope'" with
  | exception Db.Error msg ->
    Alcotest.(check bool) "BACKUP needs durability" true
      (try
         ignore (Str.search_forward (Str.regexp_string "durable") msg 0);
         true
       with Not_found -> false)
  | r -> Alcotest.failf "BACKUP on a plain db: %s" (Db.render_result r));
  (* PROMOTE on something that is not a served replica *)
  (match Db.exec plain "PROMOTE" with
  | exception Db.Error msg ->
    Alcotest.(check bool) "PROMOTE needs a replica" true
      (try
         ignore (Str.search_forward (Str.regexp_string "not a replica") msg 0);
         true
       with Not_found -> false)
  | r -> Alcotest.failf "PROMOTE on a plain db: %s" (Db.render_result r));
  (* BACKUP refuses to render inside an open transaction *)
  with_dir (fun dir ->
      with_dir (fun bdir ->
          let db, _ = Db.open_durable ~sync:Wal.Always ~dir () in
          ignore (exec db "CREATE TABLE s (a INT PRIMARY KEY)");
          ignore (exec db "BEGIN");
          (match Db.exec db (Printf.sprintf "BACKUP TO '%s'" bdir) with
          | exception Db.Error msg ->
            Alcotest.(check bool) "typed BUSY" true
              (String.length msg >= 5 && String.equal (String.sub msg 0 5)
                 "BUSY:")
          | r -> Alcotest.failf "BACKUP in tx: %s" (Db.render_result r));
          ignore (exec db "ROLLBACK");
          ignore (exec db (Printf.sprintf "BACKUP TO '%s'" bdir));
          let origin = Archive.read_backup_origin ~dir:bdir in
          Alcotest.(check int) "backup origin epoch" 0 origin.Archive.o_epoch;
          Db.close_durable db))

let suite =
  [ Alcotest.test_case "PITR: per-commit prefixes + TARGET_TOO_OLD" `Quick
      check_pitr_per_commit;
    Alcotest.test_case "crash fuzz with archive failpoints (restore == \
                        recovery)" `Slow check_archive_crash_fuzz;
    Alcotest.test_case "replica pending-tail cap" `Quick
      check_pending_tail_cap;
    Alcotest.test_case "STALE_EPOCH / FAILOVER classification" `Quick
      check_ha_error_codes;
    Alcotest.test_case "promotion, epoch fencing, split-brain discard" `Quick
      check_promotion_and_fencing;
    Alcotest.test_case "client failover across a promotion" `Quick
      check_client_failover;
    Alcotest.test_case "SET NOW follows the group to its new primary" `Quick
      check_settings_follow_failover;
    Alcotest.test_case "a lost transaction is never replayed" `Quick
      check_lost_transaction_not_replayed;
    Alcotest.test_case "a timed-out write runs at most once" `Quick
      check_timed_out_write_runs_at_most_once;
    Alcotest.test_case "differential failover fuzz" `Slow check_failover_fuzz;
    Alcotest.test_case "BACKUP TO / PROMOTE statement surfaces" `Quick
      check_statement_surfaces ]
