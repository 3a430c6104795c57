(* [attach] is the one place a log is opened, for a recovered database
   and a promoted replica alike; [snapshot] is the one consistent
   render, for a backup and a replica bootstrap alike. *)

open Tip_storage
module Metrics = Tip_obs.Metrics
module Events = Tip_obs.Events

let log_src = Logs.Src.create "tip.durable" ~doc:"TIP durable storage"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_checkpoints =
  Metrics.counter "checkpoints_total" ~help:"Durable checkpoints taken"

type t = {
  dir : string;
  wal : Wal.writer;
  mutable gen : int; (* generation shared by snapshot and log *)
  epoch : int; (* promotion epoch; a promotion attaches anew *)
  archive_dir : string option; (* seal generations here at checkpoint *)
  checkpoint_every : int; (* auto-checkpoint threshold in records; 0 = off *)
  mutable last_commit_at : int option;
      (* instant (unix seconds) of the newest commit in the log — stamps
         snapshots ([asof]) so backups know their PITR floor *)
}

(* Saves [catalog] as the snapshot of generation [gen] and opens a fresh
   log of that generation beside it. Attaching a log is where a process
   becomes a database server of some kind: the persistent event journal
   goes next to the WAL and the ASH sampler turns on. *)
let attach ?(sync = Wal.Always) ?(checkpoint_every = 10_000) ?archive_dir
    ?asof catalog ~dir ~gen ~epoch =
  Persist.save ~wal_gen:gen ~epoch ?asof catalog (Recovery.snapshot_path ~dir);
  let wal = Wal.create ~sync ~epoch ~gen (Recovery.wal_path ~dir) in
  Events.set_journal (Some (Filename.concat dir "events.log"));
  Tip_obs.Ash.start_sampler ();
  { dir; wal; gen; epoch; archive_dir; checkpoint_every; last_commit_at = asof }

(* Recovers [dir] (snapshot plus WAL tail), then attaches at the next
   generation, so the recovered state becomes the new snapshot and the
   old (possibly torn) log is superseded. With an archive, the recovered
   log is sealed first, under the generation its own frame carries: a
   stale log was already sealed at its checkpoint, so re-sealing is an
   idempotent overwrite with identical bytes. *)
let recover ?sync ?checkpoint_every ?archive_dir ~dir () =
  let catalog, info = Recovery.recover ~dir in
  let stopped =
    match info.Recovery.stopped with
    | Some reason -> Printf.sprintf " (log tail dropped: %s)" reason
    | None -> ""
  in
  if info.Recovery.replayed_records > 0 || info.Recovery.stopped <> None then
    Log.info (fun m ->
        m "recovered %s: %d record(s) in %d batch(es) replayed%s" dir
          info.Recovery.replayed_records info.Recovery.replayed_batches
          stopped);
  Option.iter
    (fun adir ->
      Option.iter
        (fun gen ->
          Archive.seal ~dir:adir ~wal_path:(Recovery.wal_path ~dir) ~gen)
        info.Recovery.wal_generation)
    archive_dir;
  let gen = info.Recovery.generation + 1 and epoch = info.Recovery.epoch in
  let d =
    attach ?sync ?checkpoint_every ?archive_dir
      ?asof:info.Recovery.last_commit_at catalog ~dir ~gen ~epoch
  in
  Events.record ~kind:"recovery"
    ~detail:
      (Printf.sprintf "opened %s at gen %d epoch %d, replayed %d record(s)%s"
         dir gen epoch info.Recovery.replayed_records stopped);
  (catalog, info, d)

(* A replica's streamed state becomes a primary rooted at [dir]: a fresh
   log under the bumped [epoch], so every generation frame it ships
   fences subscribers still on the old epoch. *)
let promote ?sync ?checkpoint_every ?archive_dir ?asof catalog ~dir ~gen
    ~epoch =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let d =
    attach ?sync ?checkpoint_every ?archive_dir ?asof catalog ~dir ~gen ~epoch
  in
  Events.record ~kind:"promotion"
    ~detail:(Printf.sprintf "writable at %s, gen %d epoch %d" dir gen epoch);
  Events.record ~kind:"epoch_change"
    ~detail:(Printf.sprintf "epoch now %d" epoch);
  d

(* Safe after a simulated crash: on-disk state is untouched, and the
   fsync of an Every_n policy's unsynced tail (which only extends the
   surviving prefix) swallows failures of an unusable fd. *)
let close d =
  (try if Wal.pending_sync d.wal then Wal.sync d.wal with _ -> ());
  Wal.close d.wal

let commit d ~at records =
  Wal.commit ~at d.wal records;
  d.last_commit_at <- Some at

let checkpoint_due d =
  d.checkpoint_every > 0 && Wal.record_count d.wal >= d.checkpoint_every

(* Atomic checkpoint: render the catalog to snapshot.tmp, fsync, rename
   over the old snapshot, then truncate the log — both stamped with the
   next generation so a crash between the two steps leaves a stale log
   that recovery skips instead of double-applying. With an archive
   attached, the closing generation is sealed before the snapshot
   rename: any stale log a crash can leave behind is therefore already
   in the archive. An Every_n policy's unsynced commits are fsynced
   first: a checkpoint is an explicit durability request. *)
let checkpoint d catalog =
  Tip_obs.Span.with_ Tip_obs.Span.Checkpoint @@ fun () ->
  if Wal.pending_sync d.wal then Wal.sync d.wal;
  let truncated = Wal.record_count d.wal in
  Option.iter
    (fun adir ->
      Archive.seal ~dir:adir
        ~wal_path:(Recovery.wal_path ~dir:d.dir)
        ~gen:d.gen)
    d.archive_dir;
  let gen = d.gen + 1 in
  Persist.save ~wal_gen:gen ~epoch:d.epoch ?asof:d.last_commit_at catalog
    (Recovery.snapshot_path ~dir:d.dir);
  Wal.truncate d.wal ~gen;
  d.gen <- gen;
  Metrics.incr m_checkpoints;
  Events.record ~kind:"checkpoint"
    ~detail:
      (Printf.sprintf "gen %d sealed, %d log record(s) truncated" (gen - 1)
         truncated);
  truncated

(* What a backup stores and a replica bootstraps from. The caller holds
   the database to itself, so the offset is the commit boundary the
   render pairs with. Unsynced commits are fsynced first, so the render
   never holds a commit the log could still lose. *)
let snapshot d catalog =
  if Wal.pending_sync d.wal then Wal.sync d.wal;
  ( { Archive.o_gen = d.gen;
      o_offset = Wal.offset d.wal;
      o_epoch = d.epoch;
      o_asof = d.last_commit_at },
    Persist.snapshot_string ~wal_gen:d.gen ~epoch:d.epoch ?asof:d.last_commit_at
      catalog )

let backup d catalog ~dir =
  let origin, snapshot = snapshot d catalog in
  Archive.write_backup ~dir ~snapshot origin;
  Events.record ~kind:"backup"
    ~detail:
      (Printf.sprintf "to %s at gen %d offset %d epoch %d" dir d.gen
         origin.Archive.o_offset d.epoch);
  origin

let archive_generation d =
  match d.archive_dir with
  | None -> None
  | Some adir -> (
    match Archive.sealed_generations adir with
    | [] -> None
    | gens -> Some (List.fold_left max 0 gens))
