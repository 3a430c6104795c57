(** WAL archiving, online backup and point-in-time recovery
    (DESIGN.md §15).

    A checkpoint normally truncates the live log, destroying the only
    copy of that generation's history. With an archive directory
    attached the generation is {e sealed} first — copied to
    [DIR/wal-<gen>] and recorded in a CRC-verified chain manifest — so
    the full redo history survives. A {e backup} is a consistent
    snapshot plus an [(gen, offset, epoch, asof)] origin stamp; restore
    replays the archived chain (and optionally the live tail) on top of
    it, stopping — with a target instant — just before the first commit
    stamped after it, on a statement boundary exactly like crash
    recovery. *)

(** Every failure this module detects: typed, prefix-classified
    messages — [ARCHIVE_CORRUPT:] (a sealed segment or the manifest
    fails verification), [BACKUP_CORRUPT:] (a damaged backup
    directory), [TARGET_TOO_OLD:] (a PITR target older than the
    backup's base snapshot). *)
exception Archive_error of string

(** {1 Archiving} *)

(** Copies the log at [wal_path] into [dir/wal-<gen>] (tmp + fsync +
    rename through failpoint sites [archive.write], [archive.fsync],
    [archive.rename]) and rewrites the manifest atomically. Idempotent:
    re-sealing a generation replaces its segment and manifest entry.
    Must run {e before} the truncation it protects, under the
    checkpoint's lock. A missing [wal_path] seals an empty segment. *)
val seal : dir:string -> wal_path:string -> gen:int -> unit

(** The generations recorded in [dir]'s manifest, ascending.
    @raise Archive_error on a corrupt manifest. *)
val sealed_generations : string -> int list

(** {1 Online backup} *)

type origin = {
  o_gen : int;  (** WAL generation the snapshot pairs with *)
  o_offset : int;  (** end-of-log byte offset at render time — a commit
                       boundary, where chain replay resumes *)
  o_epoch : int;  (** promotion epoch *)
  o_asof : int option;
      (** instant (unix seconds) of the newest commit folded into the
          base — the floor below which PITR refuses a target *)
}

(** Writes [dir/snapshot] and [dir/origin] atomically. The caller
    renders [snapshot] and [origin] consistently under the database
    lock (see {!Database.backup}). *)
val write_backup : dir:string -> snapshot:string -> origin -> unit

(** @raise Archive_error when [dir] is not a backup. *)
val read_backup_origin : dir:string -> origin

(** {1 Restore} *)

type restore_info = {
  r_base_gen : int;
  r_epoch : int;
      (** the promotion epoch the restored state belongs to (the
          backup's); replay never crosses an epoch change — a
          generation frame stamped with a different epoch marks a
          demote/re-bootstrap/promote discontinuity and stops the
          chain walk there *)
  r_segments : int;  (** archived segments replayed *)
  r_tail_replayed : bool;
  r_last_gen : int;
      (** the newest generation in the chain: the backup's, a sealed
          segment's or the live tail's leading frame — a restored root
          starts past it *)
  r_applied_batches : int;
  r_applied_records : int;  (** commit markers excluded *)
  r_last_commit_at : int option;
  r_reached_target : bool;
      (** replay stopped at the [until] boundary (rather than running
          out of history before it) *)
  r_missing_gens : int list;
      (** chain gaps skipped — generations that were never sealed
          (retired carrying no commits) or whose segments are lost *)
}

(** Rebuilds a catalog from [backup], replaying the archived chain in
    [archive_dir] and then the live log [tail] (a path; missing file =
    no tail), stopping just before the first commit stamped after
    [until] (unix seconds). Every generation replays through
    {!Wal.replay}, the loop crash recovery and replicas drive too, and
    the tail is read once. Segments are re-hashed against the manifest
    before replay; a torn tail inside a sealed segment (a generation
    sealed from a crashed log) stops that segment cleanly and replay
    continues with the next — the same prefix the primary itself
    recovered onto. Register extension types first.
    @raise Archive_error — [TARGET_TOO_OLD:] when [until] predates the
    backup's base snapshot, [ARCHIVE_CORRUPT:] on a CRC mismatch.
    @raise Persist.Format_error on a corrupt base snapshot. *)
val restore :
  backup:string ->
  ?archive_dir:string ->
  ?tail:string ->
  ?until:int ->
  unit ->
  Catalog.t * restore_info
