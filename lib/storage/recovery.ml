(* Crash recovery: latest valid snapshot + WAL tail replay.

   A durable database directory holds two files:

     <dir>/snapshot       the last checkpoint (atomic rename target)
     <dir>/wal            redo records appended since that checkpoint

   Opening recovers in three steps: discard a leftover snapshot.tmp
   (an interrupted checkpoint), load the snapshot if present, then
   replay the WAL's committed batches — but only when the log's
   generation matches the snapshot's, so a stale log surviving a crash
   between the checkpoint rename and the truncation is skipped rather
   than applied twice. Replay stops cleanly at the first torn or
   corrupt frame (and at the first record that does not fit the
   catalog), keeping every batch before it: the recovered state is
   always a committed-statement prefix of the pre-crash history. *)

let log_src = Logs.Src.create "tip.recovery" ~doc:"TIP crash recovery"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Metrics = Tip_obs.Metrics

let m_replayed_records =
  Metrics.counter "recovery_replayed_records_total"
    ~help:"Redo records applied during WAL replay"

let m_replayed_batches =
  Metrics.counter "recovery_replayed_batches_total"
    ~help:"Committed batches applied during WAL replay"

let snapshot_path ~dir = Filename.concat dir "snapshot"
let wal_path ~dir = Filename.concat dir "wal"

type info = {
  snapshot_loaded : bool;
  generation : int; (* snapshot's WAL generation (0 when fresh) *)
  wal_generation : int option; (* the log's leading generation frame *)
  epoch : int; (* promotion epoch recovered with the snapshot *)
  replayed_records : int; (* redo records applied from the log *)
  replayed_batches : int;
  stale_wal : bool; (* generation mismatch: log skipped *)
  stopped : string option; (* why replay stopped before the log's end *)
  last_commit_at : int option;
      (* instant (unix seconds) of the newest commit in the recovered
         state: the last replayed stamped commit, else the snapshot's
         own asof stamp *)
}

let ensure_dir dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Recovery: %s is not a directory" dir)

(* Loads the snapshot and replays the matching WAL tail. Raises
   [Persist.Format_error] only for a corrupt snapshot — a damaged log
   never raises, it just bounds how far replay gets. *)
let recover ~dir =
  ensure_dir dir;
  let snapshot = snapshot_path ~dir in
  let tmp = snapshot ^ ".tmp" in
  if Sys.file_exists tmp then begin
    Log.info (fun m -> m "discarding interrupted checkpoint %s" tmp);
    try Sys.remove tmp with Sys_error _ -> ()
  end;
  let catalog, snap_meta, snapshot_loaded =
    if Sys.file_exists snapshot then begin
      let catalog, meta = Persist.load_meta snapshot in
      (catalog, meta, true)
    end
    else
      ( Catalog.create (),
        { Persist.m_wal_gen = None; m_epoch = 0; m_asof = None },
        false )
  in
  let snap_gen = Option.value snap_meta.Persist.m_wal_gen ~default:0 in
  let log =
    let path = wal_path ~dir in
    if Sys.file_exists path then Failpoint.read_file path else ""
  in
  let wal_gen, wal_epoch, start =
    match Wal.leading_generation log with
    | Some (gen, epoch, next) -> (Some gen, epoch, next)
    | None -> (None, 0, 0)
  in
  let stale =
    match wal_gen with
    | Some gen when gen <> snap_gen ->
      Log.warn (fun m ->
          m "skipping stale WAL (generation %d, snapshot is %d)" gen snap_gen);
      true
    | Some _ | None -> false
  in
  let c = Wal.cursor ?last_commit_at:snap_meta.Persist.m_asof start in
  let stopped =
    if stale then None
    else
      Wal.stop_reason
        (Wal.replay catalog c ~gen:snap_gen ~epoch:wal_epoch log)
  in
  Metrics.add m_replayed_records (Wal.records c);
  Metrics.add m_replayed_batches (Wal.batches c);
  Option.iter
    (fun msg -> Log.warn (fun m -> m "WAL replay stopped early: %s" msg))
    stopped;
  ( catalog,
    { snapshot_loaded;
      generation = snap_gen;
      wal_generation = wal_gen;
      epoch =
        (if stale then snap_meta.Persist.m_epoch
         else Stdlib.max snap_meta.Persist.m_epoch wal_epoch);
      replayed_records = Wal.records c;
      replayed_batches = Wal.batches c;
      stale_wal = stale;
      stopped;
      last_commit_at = Wal.last_commit_at c } )
