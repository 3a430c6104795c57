(* Crash-safe durability: WAL framing, atomic checkpoints, recovery, and
   the fault-injection harness (DESIGN.md §8).

   The centerpiece is a differential crash-recovery fuzz: random DML/DDL
   traces run against a durable database with a failpoint armed at some
   I/O site, and after the injected "process death" the recovered state
   must equal the in-memory state after some prefix of the trace — never
   a torn mix — and under sync=Always that prefix must include every
   statement whose result was returned outside an open transaction. *)

open Tip_storage
module Db = Tip_engine.Database

(* --- Scratch directories ------------------------------------------------ *)

(* tmpfs when available: the fuzz fsyncs thousands of times. *)
let scratch_base =
  if Sys.file_exists "/dev/shm" && Sys.is_directory "/dev/shm" then "/dev/shm"
  else Filename.get_temp_dir_name ()

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let dir =
    Filename.concat scratch_base
      (Printf.sprintf "tipdur_%d_%d" (Unix.getpid ()) !dir_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

(* Removes [path] and, for a directory, everything under it. *)
let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> Failpoint.reset (); rm_rf dir) (fun () -> f dir)

(* Order-insensitive state fingerprint: table names with their sorted
   serialized rows. Heap order differs between a live database and one
   rebuilt from snapshot+log, so row order must not matter. *)
let fingerprint catalog =
  Catalog.table_names catalog
  |> List.map (fun name ->
         let tbl = Catalog.table_exn catalog name in
         let rows =
           Table.fold (fun acc row -> Persist.serialize_row row :: acc) [] tbl
         in
         name ^ "{" ^ String.concat "|" (List.sort compare rows) ^ "}")
  |> String.concat ";"

let read_file = Failpoint.read_file

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* --- WAL unit tests ----------------------------------------------------- *)

let check_crc32 () =
  (* the standard IEEE 802.3 check value *)
  Alcotest.(check int32) "crc32 check vector" 0xCBF43926l (Wal.crc32 "123456789");
  Alcotest.(check int32) "crc32 empty" 0l (Wal.crc32 "")

let sample_columns =
  [ Schema.make_column ~not_null:false ~primary_key:true "a" Schema.T_int;
    Schema.make_column ~not_null:true ~primary_key:false "b"
      (Schema.T_char (Some 12)) ]

let check_record_roundtrip () =
  let records =
    [ Wal.Generation { gen = 42; epoch = 0 };
      Wal.Generation { gen = 7; epoch = 3 };
      Wal.Insert { table = "t"; cells = [| "1"; "x\ty" |] };
      Wal.Delete { table = "t"; cells = [| "1"; "x\ty" |] };
      Wal.Update
        { table = "t"; old_cells = [| "1"; "a" |]; new_cells = [| "1"; "b" |] };
      Wal.Create_table { table = "t"; columns = sample_columns };
      Wal.Drop_table "t";
      Wal.Create_index
        { idx_name = "i"; table = "t"; column = "b"; interval = false;
          unique = true };
      Wal.Drop_index "i";
      Wal.Commit None;
      Wal.Commit (Some 959861015) ]
  in
  List.iter
    (fun r ->
      let r' = Wal.decode (Wal.encode r) in
      Alcotest.(check string) "record round-trips" (Wal.encode r) (Wal.encode r'))
    records

let check_sync_policy_parse () =
  Alcotest.(check bool) "always" true
    (Wal.sync_policy_of_string "always" = Some Wal.Always);
  Alcotest.(check bool) "never" true
    (Wal.sync_policy_of_string "never" = Some Wal.Never);
  Alcotest.(check bool) "every=3" true
    (Wal.sync_policy_of_string "every=3" = Some (Wal.Every_n 3));
  Alcotest.(check bool) "bogus" true (Wal.sync_policy_of_string "bogus" = None);
  Alcotest.(check bool) "every=0" true
    (Wal.sync_policy_of_string "every=0" = None)

(* What replaying a log file leaves: batches applied, why replay
   stopped short of the end (if it did), and the kind of stop — so a
   batch that failed to apply is never mistaken for a log without it. *)
type replayed = { batches : int; stopped : string option; stop : string }

let stop_kind = function
  | Wal.End -> "end"
  | Wal.Torn -> "torn"
  | Wal.Bad_frame _ -> "bad frame"
  | Wal.Apply_failed _ -> "apply failed"
  | Wal.Generation_frame _ -> "generation frame"
  | Wal.Past_target -> "past target"

(* Replays the log at [path] (a missing file reads as empty) onto
   [catalog] from just past its leading generation frame. *)
let replay_log catalog path =
  let log = if Sys.file_exists path then read_file path else "" in
  let gen, epoch, start =
    Option.value (Wal.leading_generation log) ~default:(0, 0, 0)
  in
  let c = Wal.cursor start in
  let stop = Wal.replay catalog c ~gen ~epoch log in
  { batches = Wal.batches c;
    stopped = Wal.stop_reason stop;
    stop = stop_kind stop }

(* The catalog the sample log below writes to. *)
let sample_catalog () =
  let catalog = Catalog.create () in
  ignore
    (Catalog.create_table catalog (Schema.make ~table_name:"t" sample_columns));
  catalog

(* Replayed DELETEs and UPDATEs find their row through an ordered index
   when the table has one, with no full scan, and still pick the lowest
   rid among equal rows. *)
let check_replay_probes_index () =
  let catalog = Catalog.create () in
  let columns ~key =
    [ Schema.make_column ~primary_key:key "a" Schema.T_int;
      Schema.make_column "b" (Schema.T_char (Some 8)) ]
  in
  List.iter (Wal.apply catalog)
    ([ Wal.Create_table { table = "kv"; columns = columns ~key:true };
       Wal.Create_table { table = "dup"; columns = columns ~key:false };
       Wal.Create_index
         { idx_name = "dup_a"; table = "dup"; column = "a"; interval = false;
           unique = false } ]
    @ List.init 200 (fun i ->
          Wal.Insert { table = "kv"; cells = [| string_of_int i; "v" |] })
    @ List.init 3 (fun _ -> Wal.Insert { table = "dup"; cells = [| "7"; "x" |] }));
  let kv = Catalog.table_exn catalog "kv" and dup = Catalog.table_exn catalog "dup" in
  let scans_before = Table.scan_count kv + Table.scan_count dup in
  for i = 0 to 199 do
    Wal.apply catalog
      (Wal.Update
         { table = "kv";
           old_cells = [| string_of_int i; "v" |];
           new_cells = [| string_of_int i; "w" |] })
  done;
  Wal.apply catalog (Wal.Delete { table = "kv"; cells = [| "5"; "w" |] });
  Wal.apply catalog (Wal.Delete { table = "dup"; cells = [| "7"; "x" |] });
  Alcotest.(check int) "no full scan" scans_before
    (Table.scan_count kv + Table.scan_count dup);
  Alcotest.(check int) "kv rows" 199 (Table.row_count kv);
  Alcotest.(check bool) "every update applied" true
    (Table.fold (fun ok row -> ok && row.(1) = Value.Str "w") true kv);
  Alcotest.(check (option reject)) "lowest equal rid deleted" None (Table.get dup 0);
  Alcotest.(check int) "other equal rows kept" 2 (Table.row_count dup)

(* A log with 3 committed batches for the torn-tail tests. *)
let write_sample_log path =
  let w = Wal.create ~sync:Wal.Always ~gen:1 path in
  for i = 1 to 3 do
    Wal.commit w
      [ Wal.Insert { table = "t"; cells = [| string_of_int i; "v" |] } ]
  done;
  Wal.close w

let check_torn_tail () =
  with_dir (fun dir ->
      let path = Filename.concat dir "wal" in
      write_sample_log path;
      (* garbage appended after the last good frame *)
      let whole = read_file path in
      write_file path (whole ^ "tipwal 999 deadbeef\npart");
      let scan = replay_log (sample_catalog ()) path in
      Alcotest.(check int) "all good batches kept" 3 scan.batches;
      Alcotest.(check bool) "torn tail reported" true (scan.stopped <> None);
      Alcotest.(check string) "garbage tail is torn" "torn" scan.stop;
      (* a short frame: cut into the last batch *)
      write_file path (String.sub whole 0 (String.length whole - 5));
      let scan = replay_log (sample_catalog ()) path in
      Alcotest.(check int) "torn last batch dropped" 2 scan.batches;
      Alcotest.(check string) "short frame is torn" "torn" scan.stop;
      (* an uncommitted batch (records without a Commit marker) is
         discarded even when its frames are intact *)
      write_file path
        (whole ^ Wal.frame (Wal.Insert { table = "t"; cells = [| "9"; "z" |] }));
      let scan = replay_log (sample_catalog ()) path in
      Alcotest.(check int) "uncommitted tail discarded" 3 scan.batches;
      Alcotest.(check bool) "clean stop" true (scan.stopped = None);
      Alcotest.(check string) "uncommitted tail ends cleanly" "end" scan.stop;
      (* a missing file is an empty log, not an error *)
      let scan = replay_log (sample_catalog ()) (Filename.concat dir "nope") in
      Alcotest.(check int) "missing = empty" 0 scan.batches;
      Alcotest.(check string) "missing ends cleanly" "end" scan.stop)

let check_bit_flip_detected () =
  with_dir (fun dir ->
      let path = Filename.concat dir "wal" in
      write_sample_log path;
      let whole = read_file path in
      (* flip one bit inside the first batch, past the generation frame *)
      let gen_len =
        String.length (Wal.frame (Wal.Generation { gen = 1; epoch = 0 }))
      in
      let b = Bytes.of_string whole in
      let target = gen_len + 10 in
      Bytes.set b target (Char.chr (Char.code (Bytes.get b target) lxor 0x10));
      write_file path (Bytes.to_string b);
      let scan = replay_log (sample_catalog ()) path in
      Alcotest.(check bool) "replay stops at the flip" true
        (scan.batches < 3);
      Alcotest.(check bool) "corruption reported" true (scan.stopped <> None);
      Alcotest.(check string) "the CRC, not the catalog, stops it" "bad frame"
        scan.stop)

(* --- Snapshot atomicity and error classification ------------------------ *)

let small_db () =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE t (a INT PRIMARY KEY, b CHAR(12))");
  ignore (Db.exec db "INSERT INTO t VALUES (1, 'one'), (2, 'two')");
  db

let check_atomic_snapshot () =
  with_dir (fun dir ->
      let path = Filename.concat dir "snap" in
      let db = small_db () in
      Persist.save (Db.catalog db) path;
      let before = fingerprint (Persist.load path) in
      ignore (Db.exec db "INSERT INTO t VALUES (3, 'three')");
      (* crash at the rename: the old snapshot must be untouched *)
      Failpoint.reset ();
      Failpoint.arm ~site:"snapshot.rename" ~hit:1 Failpoint.Crash_now;
      (match Persist.save (Db.catalog db) path with
      | () -> Alcotest.fail "expected injected crash"
      | exception Failpoint.Crash _ -> ());
      Failpoint.reset ();
      Alcotest.(check string) "old snapshot intact after rename crash" before
        (fingerprint (Persist.load path));
      (* a torn write of the tmp file: old snapshot still intact *)
      Failpoint.arm ~site:"snapshot.write" ~hit:1 (Failpoint.Short_write 10);
      (match Persist.save (Db.catalog db) path with
      | () -> Alcotest.fail "expected injected crash"
      | exception Failpoint.Crash _ -> ());
      Failpoint.reset ();
      Alcotest.(check string) "old snapshot intact after torn write" before
        (fingerprint (Persist.load path));
      (* an undisturbed save replaces it *)
      Persist.save (Db.catalog db) path;
      Alcotest.(check bool) "clean save lands" true
        (fingerprint (Persist.load path) <> before))

let check_format_error_lines () =
  with_dir (fun dir ->
      let path = Filename.concat dir "snap" in
      write_file path "tipdb 1\ntable t\ncolumn a INT - 0 1\nrows 1\nxx\nend\n";
      (match Persist.load path with
      | _ -> Alcotest.fail "expected Format_error"
      | exception Persist.Format_error msg ->
        let has s =
          try ignore (Str.search_forward (Str.regexp_string s) msg 0); true
          with Not_found -> false
        in
        Alcotest.(check bool) "classified as a bad cell" true (has "bad INT cell");
        Alcotest.(check bool) "carries the line number" true (has "line 5"));
      (* bad row count is classified, not a bare Failure *)
      write_file path "tipdb 1\ntable t\ncolumn a INT - 0 1\nrows zz\nend\n";
      match Persist.load path with
      | _ -> Alcotest.fail "expected Format_error"
      | exception Persist.Format_error _ -> ())

(* --- Recovery ----------------------------------------------------------- *)

let check_basic_recovery () =
  with_dir (fun dir ->
      let db, info = Db.open_durable ~dir () in
      Alcotest.(check bool) "fresh dir: no snapshot" false
        info.Recovery.snapshot_loaded;
      ignore (Db.exec db "CREATE TABLE t (a INT PRIMARY KEY, b CHAR(12))");
      ignore (Db.exec db "INSERT INTO t VALUES (1, 'one'), (2, 'two')");
      ignore (Db.exec db "UPDATE t SET b = 'deux' WHERE a = 2");
      ignore (Db.exec db "DELETE FROM t WHERE a = 1");
      ignore (Db.exec db "CREATE INDEX t_b ON t (b)");
      (* a committed transaction is one WAL batch; a rolled-back one
         leaves no trace in the log *)
      ignore (Db.exec db "BEGIN");
      ignore (Db.exec db "INSERT INTO t VALUES (10, 'tx')");
      ignore (Db.exec db "COMMIT");
      ignore (Db.exec db "BEGIN");
      ignore (Db.exec db "INSERT INTO t VALUES (11, 'gone')");
      ignore (Db.exec db "ROLLBACK");
      let before = fingerprint (Db.catalog db) in
      (* no checkpoint: simulate the process dying with only the WAL *)
      Db.close_durable db;
      let db2, info = Db.open_durable ~dir () in
      Alcotest.(check bool) "log was replayed" true
        (info.Recovery.replayed_records > 0);
      Alcotest.(check string) "state rebuilt from snapshot+log" before
        (fingerprint (Db.catalog db2));
      let t = Catalog.table_exn (Db.catalog db2) "t" in
      Alcotest.(check bool) "secondary index replayed" true
        (Table.find_index t "t_b" <> None);
      (match Db.exec db2 "SELECT b FROM t WHERE a = 10" with
      | Db.Rows { rows = [ [| Value.Str "tx" |] ]; _ } -> ()
      | r -> Alcotest.failf "committed tx row lost: %s" (Db.render_result r));
      (match Db.exec db2 "SELECT COUNT(*) FROM t WHERE a = 11" with
      | Db.Rows { rows = [ [| Value.Int 0 |] ]; _ } -> ()
      | r -> Alcotest.failf "rolled-back row resurrected: %s" (Db.render_result r));
      Db.close_durable db2)

let check_checkpoint_statement () =
  with_dir (fun dir ->
      let db, _ = Db.open_durable ~dir () in
      ignore (Db.exec db "CREATE TABLE t (a INT PRIMARY KEY, b CHAR(12))");
      ignore (Db.exec db "INSERT INTO t VALUES (1, 'one'), (2, 'two')");
      (match Db.exec db "CHECKPOINT" with
      | Db.Message m ->
        Alcotest.(check bool) "reports the truncation" true
          (try ignore (Str.search_forward (Str.regexp_string "truncated") m 0); true
           with Not_found -> false)
      | r -> Alcotest.failf "unexpected: %s" (Db.render_result r));
      let scan =
        replay_log
          (Persist.load (Recovery.snapshot_path ~dir))
          (Recovery.wal_path ~dir)
      in
      Alcotest.(check int) "log empty after checkpoint" 0 scan.batches;
      Alcotest.(check string) "nothing left to apply" "end" scan.stop;
      (* disallowed mid-transaction *)
      ignore (Db.exec db "BEGIN");
      (match Db.exec db "CHECKPOINT" with
      | exception Db.Error _ -> ()
      | _ -> Alcotest.fail "CHECKPOINT must fail inside a transaction");
      ignore (Db.exec db "ROLLBACK");
      let before = fingerprint (Db.catalog db) in
      Db.close_durable db;
      let db2, info = Db.open_durable ~dir () in
      Alcotest.(check int) "nothing to replay" 0 info.Recovery.replayed_records;
      Alcotest.(check string) "snapshot carries the state" before
        (fingerprint (Db.catalog db2));
      Db.close_durable db2;
      (* without durable storage the statement is a polite no-op *)
      let plain = Db.create () in
      match Db.exec plain "CHECKPOINT" with
      | Db.Message m ->
        Alcotest.(check bool) "skipped" true
          (try ignore (Str.search_forward (Str.regexp_string "skipped") m 0); true
           with Not_found -> false)
      | r -> Alcotest.failf "unexpected: %s" (Db.render_result r))

let check_stale_wal_skipped () =
  with_dir (fun dir ->
      let db, _ = Db.open_durable ~dir () in
      ignore (Db.exec db "CREATE TABLE t (a INT PRIMARY KEY, b CHAR(12))");
      ignore (Db.exec db "INSERT INTO t VALUES (1, 'one'), (2, 'two')");
      let old_wal = read_file (Recovery.wal_path ~dir) in
      ignore (Db.exec db "CHECKPOINT");
      ignore (Db.exec db "INSERT INTO t VALUES (3, 'three')");
      Db.close_durable db;
      (* put the pre-checkpoint log back: its generation no longer
         matches the snapshot, so replaying it would double-apply *)
      write_file (Recovery.wal_path ~dir) old_wal;
      let db2, info = Db.open_durable ~dir () in
      Alcotest.(check bool) "stale log detected" true info.Recovery.stale_wal;
      Alcotest.(check int) "stale log not replayed" 0
        info.Recovery.replayed_records;
      (match Db.exec db2 "SELECT COUNT(*) FROM t" with
      | Db.Rows { rows = [ [| Value.Int 2 |] ]; _ } -> ()
      | r -> Alcotest.failf "expected checkpoint state: %s" (Db.render_result r));
      Db.close_durable db2)

let check_history_survives_recovery () =
  with_dir (fun dir ->
      Tip_blade.Values.register_types ();
      let db, _ = Db.open_durable ~dir () in
      Tip_blade.Blade.install db;
      ignore (Db.exec db "CREATE TABLE h (a INT PRIMARY KEY, b CHAR(12)) WITH HISTORY");
      ignore (Db.exec db "INSERT INTO h VALUES (1, 'v1')");
      ignore (Db.exec db "UPDATE h SET b = 'v2' WHERE a = 1");
      ignore (Db.exec db "DELETE FROM h WHERE a = 1");
      let before = fingerprint (Db.catalog db) in
      Db.close_durable db;
      let db2, _ = Db.open_durable ~dir () in
      Tip_blade.Blade.install db2;
      (* shadow-table mutations are logged as their own records, so the
         transaction-time history replays byte-for-byte *)
      Alcotest.(check string) "history shadow replayed exactly" before
        (fingerprint (Db.catalog db2));
      Db.close_durable db2)

let check_sync_always_durable () =
  with_dir (fun dir ->
      let db, _ = Db.open_durable ~sync:Wal.Always ~dir () in
      ignore (Db.exec db "CREATE TABLE t (a INT PRIMARY KEY, b CHAR(12))");
      let returned = ref 0 in
      (* crash on the 5th WAL append: every result returned before it
         must survive *)
      Failpoint.reset ();
      Failpoint.arm ~site:"wal.write" ~hit:5 Failpoint.Crash_now;
      (try
         for i = 1 to 10 do
           ignore (Db.exec db (Printf.sprintf "INSERT INTO t VALUES (%d, 'v%d')" i i));
           incr returned
         done
       with Failpoint.Crash _ -> ());
      Failpoint.reset ();
      Alcotest.(check bool) "crash fired mid-run" true (!returned < 10);
      Db.close_durable db;
      let db2, _ = Db.open_durable ~dir () in
      (match Db.exec db2 "SELECT COUNT(*) FROM t" with
      | Db.Rows { rows = [ [| Value.Int n |] ]; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "returned %d, recovered %d" !returned n)
          true (n >= !returned)
      | r -> Alcotest.failf "unexpected: %s" (Db.render_result r));
      Db.close_durable db2)

let check_relaxed_sync_modes () =
  (* Every_n / Never still recover fully after a clean close (the writes
     are unbuffered; only the fsync cadence differs). *)
  List.iter
    (fun sync ->
      with_dir (fun dir ->
          let db, _ = Db.open_durable ~sync ~dir () in
          ignore (Db.exec db "CREATE TABLE t (a INT PRIMARY KEY, b CHAR(12))");
          for i = 1 to 5 do
            ignore (Db.exec db (Printf.sprintf "INSERT INTO t VALUES (%d, 'v')" i))
          done;
          let before = fingerprint (Db.catalog db) in
          Db.close_durable db;
          let db2, _ = Db.open_durable ~dir () in
          Alcotest.(check string) "recovers after clean close" before
            (fingerprint (Db.catalog db2));
          Db.close_durable db2))
    [ Wal.Every_n 2; Wal.Never ]

(* --- Differential crash-recovery fuzz ----------------------------------- *)

(* Deterministic trace: DML/DDL over t0/t1 (+ a transient t2), with
   transactions, index churn and explicit CHECKPOINTs. All values derive
   from the seed, so replaying a prefix on a fresh in-memory database is
   reproducible. *)
let gen_trace seed =
  let st = Random.State.make [| 0x7e39; seed |] in
  let n = 24 + Random.State.int st 8 in
  let key = ref 0 in
  let stmts = ref [] in
  let emit s = stmts := s :: !stmts in
  emit "CREATE TABLE t0 (a INT PRIMARY KEY, b CHAR(12))";
  emit "CREATE TABLE t1 (a INT PRIMARY KEY, b CHAR(12))";
  let in_tx = ref false in
  for _ = 1 to n do
    let tbl = Random.State.int st 2 in
    let pick = Random.State.int st 100 in
    incr key;
    let k = (seed * 1000) + !key in
    if !in_tx && pick < 20 then begin
      emit (if pick < 10 then "COMMIT" else "ROLLBACK");
      in_tx := false
    end
    else if (not !in_tx) && pick < 8 then begin
      emit "BEGIN";
      in_tx := true
    end
    else if pick < 45 then
      emit (Printf.sprintf "INSERT INTO t%d VALUES (%d, 'v%d')" tbl k !key)
    else if pick < 55 then
      emit
        (Printf.sprintf "INSERT INTO t%d VALUES (%d, 'a%d'), (%d, 'b%d')" tbl k
           !key (k + 500) !key)
    else if pick < 70 then
      emit
        (Printf.sprintf "UPDATE t%d SET b = 'u%d' WHERE a > %d" tbl !key
           ((seed * 1000) + Random.State.int st (!key + 1)))
    else if pick < 80 then
      emit
        (Printf.sprintf "DELETE FROM t%d WHERE a > %d" tbl
           ((seed * 1000) + 400 + Random.State.int st 700))
    else if pick < 85 then
      emit "CREATE TABLE t2 (a INT PRIMARY KEY, b CHAR(12))"
    else if pick < 88 then emit "DROP TABLE IF EXISTS t2"
    else if pick < 92 then
      emit (Printf.sprintf "CREATE INDEX idx_t%d_b ON t%d (b)" tbl tbl)
    else if pick < 95 then emit (Printf.sprintf "DROP INDEX idx_t%d_b" tbl)
    else if not !in_tx then emit "CHECKPOINT"
    else emit (Printf.sprintf "INSERT INTO t%d VALUES (%d, 'w%d')" tbl k !key)
  done;
  if !in_tx then emit "COMMIT";
  List.rev !stmts

(* Applies one statement, swallowing ordinary engine errors (duplicate
   DDL, missing index, ...) — those are part of the trace semantics and
   fail identically on replay. Injected crashes propagate. *)
let apply_stmt db sql =
  match Db.exec db sql with
  | _ -> ()
  | exception (Failpoint.Crash _ as e) -> raise e
  | exception _ -> ()

(* In-memory reference run: the fingerprint after each statement prefix. *)
let prefix_fingerprints trace =
  let db = Db.create () in
  let fps = Array.make (List.length trace + 1) (fingerprint (Db.catalog db)) in
  List.iteri
    (fun i sql ->
      apply_stmt db sql;
      fps.(i + 1) <- fingerprint (Db.catalog db))
    trace;
  fps

let fuzz_sites =
  [| "wal.write"; "wal.fsync"; "snapshot.write"; "snapshot.fsync";
     "snapshot.rename" |]

(* One (trace, crash-point) pair: run the trace against a durable
   database with the failpoint armed, recover, and check the recovered
   state is a consistent prefix. *)
let run_crash_case ~trace ~prefixes ~case =
  let site = fuzz_sites.(case mod Array.length fuzz_sites) in
  let hit = 1 + (case * 2 mod 7) in
  let action, corrupting =
    match case mod 3 with
    | 0 -> (Failpoint.Crash_now, false)
    | 1 -> (Failpoint.Short_write (3 + (7 * case)), false)
    | _ ->
      if String.equal site "wal.write" then (Failpoint.Bit_flip ((11 * case) + 3), true)
      else (Failpoint.Crash_now, false)
  in
  with_dir (fun dir ->
      Failpoint.reset ();
      Failpoint.arm ~site ~hit action;
      let committed = ref 0 and executed = ref 0 in
      (match Db.open_durable ~sync:Wal.Always ~checkpoint_every:7 ~dir () with
      | db, _ ->
        (try
           List.iter
             (fun sql ->
               incr executed;
               apply_stmt db sql;
               if not (Db.in_transaction db) then committed := !executed)
             trace
         with Failpoint.Crash _ -> ());
        Failpoint.reset ();
        Db.close_durable db
      | exception Failpoint.Crash _ -> Failpoint.reset ());
      Failpoint.reset ();
      let db2, _ = Db.open_durable ~dir () in
      let fp = fingerprint (Db.catalog db2) in
      Db.close_durable db2;
      let matches m = String.equal prefixes.(m) fp in
      let exists_in lo hi =
        let rec go m = m <= hi && (matches m || go (m + 1)) in
        go lo
      in
      (* prefix consistency: the recovered state is the state after SOME
         number of statements — never a torn mix *)
      if not (exists_in 0 (Array.length prefixes - 1)) then
        Alcotest.failf
          "recovered state matches no prefix (site %s hit %d, %d/%d run)" site
          hit !committed !executed;
      (* durability: with sync=Always and a crash (not media corruption),
         nothing durably committed may be lost, and nothing past the
         in-flight statement may appear *)
      if not corrupting && not (exists_in !committed !executed) then
        Alcotest.failf
          "recovered state outside [committed=%d, executed=%d] (site %s hit %d)"
          !committed !executed site hit)

let check_crash_fuzz () =
  let traces = 20 and points = 10 in
  for seed = 1 to traces do
    let trace = gen_trace seed in
    let prefixes = prefix_fingerprints trace in
    for j = 0 to points - 1 do
      run_crash_case ~trace ~prefixes ~case:((seed * points) + j)
    done
  done

(* Oracle for the session journal: transactions with SAVEPOINT, ROLLBACK
   TO and RELEASE, and statements cancelled mid-way (an armed exec.poll
   failpoint, or a token tripped before the statement starts), inside
   and outside transactions. After every statement the live database
   must equal a reference that skipped the cancelled statements, and
   the state recovered from disk must equal the live state at its last
   commit boundary. *)
type cancel = At_poll of int | Tripped

let gen_savepoint_trace seed =
  let st = Random.State.make [| 0x5a7e; seed |] in
  let steps = ref [] in
  let emit ?cancel sql = steps := (sql, cancel) :: !steps in
  emit "CREATE TABLE t0 (a INT PRIMARY KEY, b CHAR(12))";
  emit "CREATE TABLE t1 (a INT PRIMARY KEY, b CHAR(12))";
  let in_tx = ref false and savepoints = ref 0 and key = ref 0 in
  for _ = 1 to 30 + Random.State.int st 10 do
    incr key;
    let tbl = Random.State.int st 2 and pick = Random.State.int st 100 in
    let k = (seed * 1000) + (!key * 3) in
    let cancel () =
      match Random.State.int st 3 with
      | 0 -> Some Tripped
      | _ -> Some (At_poll (1 + Random.State.int st 12))
    in
    let sp () = Printf.sprintf "sp%d" (Random.State.int st (!savepoints + 1)) in
    if !in_tx && pick < 8 then begin
      emit (if pick < 5 then "COMMIT" else "ROLLBACK");
      in_tx := false
    end
    else if (not !in_tx) && pick < 25 then begin
      emit "BEGIN";
      in_tx := true;
      savepoints := 0
    end
    else if !in_tx && pick < 38 then begin
      emit (Printf.sprintf "SAVEPOINT sp%d" !savepoints);
      incr savepoints
    end
    else if !in_tx && pick < 48 then emit ("ROLLBACK TO " ^ sp ())
    else if !in_tx && pick < 53 then emit ("RELEASE " ^ sp ())
    else if pick < 68 then
      emit
        (Printf.sprintf "INSERT INTO t%d VALUES (%d, 'v%d'), (%d, 'w%d')" tbl k
           !key (k + 1) !key)
    else if pick < 80 then
      emit ?cancel:(cancel ())
        (Printf.sprintf "UPDATE t%d SET b = 'u%d' WHERE a > %d" tbl !key
           ((seed * 1000) + Random.State.int st (k - (seed * 1000) + 1)))
    else if pick < 88 then
      emit ?cancel:(cancel ())
        (Printf.sprintf "INSERT INTO t%d SELECT a + 100000 * %d, b FROM t%d" tbl
           !key (1 - tbl))
    else if pick < 96 then
      emit ?cancel:(cancel ())
        (Printf.sprintf "DELETE FROM t%d WHERE a > %d" tbl
           ((seed * 1000) + Random.State.int st (k - (seed * 1000) + 1)))
    else if not !in_tx then emit "CHECKPOINT"
  done;
  if !in_tx then emit "COMMIT";
  List.rev !steps

(* Runs [sql] on [db] under [cancel]; whether the statement was cancelled. *)
let run_cancelled db sql cancel =
  Failpoint.reset ();
  let token =
    match cancel with
    | Some Tripped ->
      let tok = Tip_core.Deadline.create () in
      Tip_core.Deadline.cancel tok Tip_core.Deadline.Client_gone;
      tok
    | Some (At_poll hit) ->
      Failpoint.arm ~site:"exec.poll" ~hit (Failpoint.Fail "cancel");
      Tip_core.Deadline.never
    | None -> Tip_core.Deadline.never
  in
  Fun.protect ~finally:Failpoint.reset @@ fun () ->
  match Db.exec ~token db sql with
  | _ -> false
  | exception Tip_core.Deadline.Cancelled _ -> true
  | exception _ -> false

let check_savepoint_cancel_recovery () =
  let cancelled_in_tx = ref 0 in
  for seed = 1 to 20 do
    with_dir (fun dir ->
        let db, _ = Db.open_durable ~sync:Wal.Always ~checkpoint_every:50 ~dir () in
        let reference = Db.create () in
        let committed = ref (fingerprint (Db.catalog db)) in
        List.iteri
          (fun i (sql, cancel) ->
            if run_cancelled db sql cancel then begin
              if Db.in_transaction db then incr cancelled_in_tx
            end
            else apply_stmt reference sql;
            let live = fingerprint (Db.catalog db) in
            if not (String.equal live (fingerprint (Db.catalog reference))) then
              Alcotest.failf "seed %d step %d (%s): live state differs from the \
                              reference" seed i sql;
            if not (Db.in_transaction db) then committed := live;
            let recovered, _ = Recovery.recover ~dir in
            if not (String.equal !committed (fingerprint recovered)) then
              Alcotest.failf
                "seed %d step %d (%s): recovered state is not the committed state"
                seed i sql)
          (gen_savepoint_trace seed);
        Db.close_durable db)
  done;
  if !cancelled_in_tx < 20 then
    Alcotest.failf "only %d statements cancelled inside a transaction"
      !cancelled_in_tx

(* --- Server robustness --------------------------------------------------- *)

let with_server ?idle_timeout f =
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE s (a INT PRIMARY KEY)");
  let server = Tip_server.Server.listen ?idle_timeout ~port:0 db in
  Tip_server.Server.serve_in_background server;
  Fun.protect
    ~finally:(fun () -> Tip_server.Server.stop server)
    (fun () -> f (Tip_server.Server.port server))

let check_poison_statement () =
  with_server (fun port ->
      let c = Tip_server.Remote.connect ~port () in
      (* an unexpected exception inside execution becomes an E response
         and the session (and server) survive *)
      Failpoint.reset ();
      Failpoint.arm ~site:"server.exec" ~hit:1 (Failpoint.Fail "poison");
      (match Tip_server.Remote.execute c "SELECT 1" with
      | exception Tip_server.Remote.Remote_error msg ->
        Alcotest.(check bool) "classified as internal" true
          (try ignore (Str.search_forward (Str.regexp_string "internal error") msg 0); true
           with Not_found -> false)
      | r -> Alcotest.failf "expected poison error, got %s" (Db.render_result r));
      Failpoint.reset ();
      (match Tip_server.Remote.execute c "INSERT INTO s VALUES (1)" with
      | Db.Affected 1 -> ()
      | r -> Alcotest.failf "session must survive: %s" (Db.render_result r));
      Tip_server.Remote.close c)

let check_malformed_bind_line () =
  with_server (fun port ->
      (* a raw socket, so we can send bytes Remote would never produce *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      (* decode_typed raises on the bad wire int — the server must answer
         E, not drop the session *)
      output_string oc "B x\tint\tnotanint\n";
      flush oc;
      (match Tip_server.Protocol.read_response ic with
      | Tip_server.Protocol.Error _ -> ()
      | _ -> Alcotest.fail "expected E for the malformed bind");
      output_string oc "Q SELECT 2 + 2\n";
      flush oc;
      (match Tip_server.Protocol.read_response ic with
      | Tip_server.Protocol.Rows { rows = [ [| Value.Int 4 |] ]; _ } -> ()
      | _ -> Alcotest.fail "session must survive the malformed line");
      Unix.close fd)

let check_idle_timeout () =
  with_server ~idle_timeout:0.2 (fun port ->
      let c = Tip_server.Remote.connect ~port () in
      (match Tip_server.Remote.execute c "SELECT 1" with
      | Db.Rows _ -> ()
      | r -> Alcotest.failf "warm-up failed: %s" (Db.render_result r));
      Unix.sleepf 0.6;
      (match Tip_server.Remote.execute c "SELECT 1" with
      | exception Tip_server.Remote.Remote_error _ -> ()
      | exception Sys_error _ -> ()
      | _ -> Alcotest.fail "idle session should have been dropped");
      Tip_server.Remote.close c)

(* --- Client connect retries ---------------------------------------------- *)

let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  Unix.close fd;
  port

let check_connect_retries_late_server () =
  let port = free_port () in
  let server = ref None in
  let starter =
    Thread.create
      (fun () ->
        Unix.sleepf 0.3;
        let db = Db.create () in
        let s = Tip_server.Server.listen ~port db in
        server := Some s;
        Tip_server.Server.serve_in_background s)
      ()
  in
  (* the server is not up yet: the first attempts get ECONNREFUSED and
     the backoff must ride it out *)
  let t0 = Unix.gettimeofday () in
  let c = Tip_server.Remote.connect ~attempts:10 ~retry_delay:0.05 ~port () in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "needed at least one retry" true (elapsed > 0.1);
  (match Tip_server.Remote.execute c "SELECT 40 + 2" with
  | Db.Rows { rows = [ [| Value.Int 42 |] ]; _ } -> ()
  | r -> Alcotest.failf "unexpected: %s" (Db.render_result r));
  Tip_server.Remote.close c;
  Thread.join starter;
  Option.iter Tip_server.Server.stop !server

let check_connect_retries_exhausted () =
  let port = free_port () in
  match Tip_server.Remote.connect ~attempts:2 ~retry_delay:0.01 ~port () with
  | _ -> Alcotest.fail "connect to a dead port must fail"
  | exception Tip_server.Remote.Remote_error msg ->
    Alcotest.(check bool) "reports the attempt count" true
      (try ignore (Str.search_forward (Str.regexp_string "2 attempts") msg 0); true
       with Not_found -> false)

(* --- Byte identity of the log ---------------------------------------- *)

(* One fixed script through a durable database: the WAL it leaves and
   the snapshot a checkpoint then renders must stay byte-for-byte what
   they were when the values below were recorded. A refactor of the
   statement path that reorders journal entries, drops one or changes
   a record's cells fails here even when recovery would still agree.
   Every write runs under a SET NOW: commit markers carry the session's
   NOW, so the bytes do not depend on the clock. *)
let byte_identity_script =
  [ "SET NOW = '2020-01-01'";
    "CREATE TABLE acct (id INT PRIMARY KEY, bal INT) WITH HISTORY";
    "INSERT INTO acct VALUES (1, 100), (2, 200), (3, 300)";
    "UPDATE acct SET bal = bal + 5 WHERE id >= 2";
    "DELETE FROM acct WHERE id = 1";
    "BEGIN";
    "INSERT INTO acct VALUES (4, 400)";
    "SAVEPOINT s1";
    "UPDATE acct SET bal = 0 WHERE id = 4";
    "ROLLBACK TO SAVEPOINT s1";
    "SAVEPOINT s2";
    "DELETE FROM acct WHERE id = 2";
    "RELEASE SAVEPOINT s2";
    "COMMIT";
    "BEGIN";
    "CREATE TABLE scratch (x INT)";
    "INSERT INTO acct VALUES (5, 500)";
    "ROLLBACK";
    "CREATE INDEX acct_bal ON acct (bal)";
    "DROP INDEX acct_bal";
    "CREATE TABLE rich AS SELECT id, bal FROM acct WHERE bal > 250";
    "SET NOW = '2021-06-15'";
    "UPDATE acct SET bal = bal * 2 WHERE id = 3";
    "CREATE TABLE ev (id INT, valid Element) PARTITION BY RANGE (valid) \
     (PARTITION y2020 FOR VALUES FROM '2020-01-01' TO '2021-01-01', \
     PARTITION y2021 FOR VALUES FROM '2021-01-01' TO '2022-01-01', \
     PARTITION rest DEFAULT)";
    "INSERT INTO ev VALUES (1, '{[2020-03-01, 2020-06-01]}'), \
     (2, '{[2021-03-01, 2021-06-01]}')";
    "UPDATE ev SET valid = '{[2021-02-01, 2021-04-01]}' WHERE id = 1";
    "ANALYZE" ]

(* Recorded from the script above; a change that moves these bytes
   must say why. *)
let expected_wal_bytes = 2759
let expected_wal_digest = "0766da20441c2aed2ff374c97e65988b"

let expected_snapshot =
  String.concat "\n"
    [ "tipdb 1";
      "walgen 2";
      "epoch 0";
      "asof 1623715200";
      "table acct";
      "column id INT - 1 1";
      "column bal INT - 0 0";
      "index acct_pkey id ordered 1";
      "rows 2";
      "4\t400";
      "3\t610";
      "end";
      "table acct_history";
      "column id INT - 1 0";
      "column bal INT - 0 0";
      "column _tt EXT:element - 0 0";
      "rows 7";
      "1\t100\t{[2020-01-01, 2020-01-01]}";
      "2\t200\t{[2020-01-01, 2020-01-01]}";
      "3\t300\t{[2020-01-01, 2020-01-01]}";
      "2\t205\t{[2020-01-01, 2020-01-01]}";
      "3\t305\t{[2020-01-01, 2021-06-15]}";
      "4\t400\t{[2020-01-01, NOW]}";
      "3\t610\t{[2021-06-15, NOW]}";
      "end";
      "table ev__rest";
      "column id INT - 0 0";
      "column valid EXT:element - 0 0";
      "rows 0";
      "end";
      "table ev__y2020";
      "column id INT - 0 0";
      "column valid EXT:element - 0 0";
      "rows 0";
      "end";
      "table ev__y2021";
      "column id INT - 0 0";
      "column valid EXT:element - 0 0";
      "rows 2";
      "2\t{[2021-03-01, 2021-06-01]}";
      "1\t{[2021-02-01, 2021-04-01]}";
      "end";
      "table rich";
      "column id INT - 0 0";
      "column bal INT - 0 0";
      "rows 2";
      "4\t400";
      "3\t305";
      "end";
      "table scratch";
      "column x INT - 0 0";
      "rows 0";
      "end";
      "partitioned ev valid";
      "part y2020 1577836800 1609459200";
      "part y2021 1609459200 1640995200";
      "part rest default";
      "end";
      "" ]

let check_byte_identity () =
  with_dir (fun dir ->
      Tip_blade.Values.register_types ();
      let db, _ = Db.open_durable ~checkpoint_every:0 ~dir () in
      Tip_blade.Blade.install db;
      List.iter (fun sql -> ignore (Db.exec db sql)) byte_identity_script;
      let wal = read_file (Recovery.wal_path ~dir) in
      ignore (Db.checkpoint db);
      let snapshot = read_file (Recovery.snapshot_path ~dir) in
      Db.close_durable db;
      Alcotest.(check int) "WAL length" expected_wal_bytes (String.length wal);
      Alcotest.(check string) "WAL digest" expected_wal_digest
        (Digest.to_hex (Digest.string wal));
      Alcotest.(check string) "checkpoint snapshot" expected_snapshot snapshot)

(* A scratch directory is gone after [with_dir], nested directories
   included. *)
let check_with_dir_cleans_up () =
  let kept = ref "" in
  with_dir (fun dir ->
      kept := dir;
      let nested = Filename.concat (Filename.concat dir "traces") "deeper" in
      Unix.mkdir (Filename.concat dir "traces") 0o755;
      Unix.mkdir nested 0o755;
      Out_channel.with_open_bin (Filename.concat nested "trace.json") (fun oc ->
          output_string oc "{}");
      Out_channel.with_open_bin (Filename.concat dir "top.txt") (fun oc ->
          output_string oc "x"));
  Alcotest.(check bool) "scratch directory removed" false (Sys.file_exists !kept)

(* Loading shares equal CHAR cells: a snapshot load and a WAL replay
   each give equal strings one value, the bytes saved again are the
   bytes loaded, and updating one row leaves its twin intact. *)
let check_char_interning () =
  let cells catalog =
    let t = Catalog.table_exn catalog "t" in
    List.sort compare (Table.fold (fun acc row -> (row.(0), row.(1)) :: acc) [] t)
  in
  let twins catalog =
    match cells catalog with
    | (_, a) :: (_, b) :: (_, c) :: _ ->
      Alcotest.(check bool) "equal cells are one value" true (a == b);
      Alcotest.(check bool) "a different cell is its own" false (a == c)
    | _ -> Alcotest.fail "expected three rows"
  in
  let fill db =
    ignore (Db.exec db "CREATE TABLE t (id INT, name CHAR(8))");
    List.iter
      (fun sql -> ignore (Db.exec db sql))
      [ "INSERT INTO t VALUES (1, 'twin')"; "INSERT INTO t VALUES (2, 'twin')";
        "INSERT INTO t VALUES (3, 'other')" ]
  in
  let db = Db.create () in
  fill db;
  let text = Persist.snapshot_string (Db.catalog db) in
  let catalog, _ = Persist.load_string text in
  twins catalog;
  Alcotest.(check string) "snapshot bytes unchanged" text (Persist.snapshot_string catalog);
  let loaded = Db.create ~catalog () in
  ignore (Db.exec loaded "UPDATE t SET name = 'changed' WHERE id = 1");
  Alcotest.(check (list string)) "the twin keeps its value" [ "twin" ]
    (List.map
       (fun row -> Value.to_display_string row.(0))
       (Db.rows_exn (Db.exec loaded "SELECT name FROM t WHERE id = 2")));
  with_dir (fun dir ->
      let db, _ = Db.open_durable ~dir () in
      fill db;
      Db.close_durable db;
      let db2, info = Db.open_durable ~dir () in
      Alcotest.(check bool) "rows came from the log" true
        (info.Recovery.replayed_records > 0);
      twins (Db.catalog db2);
      Db.close_durable db2)

let suite =
  [ Alcotest.test_case "crc32 vectors" `Quick check_crc32;
    Alcotest.test_case "CHAR cells shared at load" `Quick check_char_interning;
    Alcotest.test_case "scratch directories are removed" `Quick
      check_with_dir_cleans_up;
    Alcotest.test_case "WAL record round-trip" `Quick check_record_roundtrip;
    Alcotest.test_case "sync policy parsing" `Quick check_sync_policy_parse;
    Alcotest.test_case "replay probes an index, lowest rid first" `Quick
      check_replay_probes_index;
    Alcotest.test_case "torn tail never raises" `Quick check_torn_tail;
    Alcotest.test_case "bit flip caught by CRC" `Quick check_bit_flip_detected;
    Alcotest.test_case "snapshot save is atomic" `Quick check_atomic_snapshot;
    Alcotest.test_case "bad cells classified with line numbers" `Quick
      check_format_error_lines;
    Alcotest.test_case "recovery replays the committed tail" `Quick
      check_basic_recovery;
    Alcotest.test_case "CHECKPOINT statement" `Quick check_checkpoint_statement;
    Alcotest.test_case "stale log is skipped, not double-applied" `Quick
      check_stale_wal_skipped;
    Alcotest.test_case "history shadow survives recovery" `Quick
      check_history_survives_recovery;
    Alcotest.test_case "sync=Always keeps returned statements" `Quick
      check_sync_always_durable;
    Alcotest.test_case "relaxed sync modes recover after clean close" `Quick
      check_relaxed_sync_modes;
    Alcotest.test_case "script leaves byte-identical WAL and snapshot" `Quick
      check_byte_identity;
    Alcotest.test_case "crash-recovery fuzz (200 pairs)" `Quick check_crash_fuzz;
    Alcotest.test_case "savepoints and cancels: recovered = committed" `Quick
      check_savepoint_cancel_recovery;
    Alcotest.test_case "poison statement becomes E response" `Quick
      check_poison_statement;
    Alcotest.test_case "malformed bind line survives" `Quick
      check_malformed_bind_line;
    Alcotest.test_case "idle sessions are dropped" `Quick check_idle_timeout;
    Alcotest.test_case "connect retries ride out a late server" `Quick
      check_connect_retries_late_server;
    Alcotest.test_case "connect retries are bounded" `Quick
      check_connect_retries_exhausted ]
