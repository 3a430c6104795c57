(** Crash recovery: latest valid snapshot + WAL tail replay
    (DESIGN.md §8).

    A durable database directory holds [snapshot] (the last checkpoint)
    and [wal] (redo records appended since). {!recover} discards an
    interrupted [snapshot.tmp], loads the snapshot, reads the log once
    and replays its committed batches through {!Wal.replay} when the
    generations agree — a stale log left by a crash mid-checkpoint is
    skipped rather than applied twice. Replay stops cleanly at the first torn or corrupt frame,
    keeping every committed batch before it, so the recovered state is a
    committed-statement prefix of the pre-crash history. *)

val snapshot_path : dir:string -> string
val wal_path : dir:string -> string

type info = {
  snapshot_loaded : bool;
  generation : int;  (** snapshot's WAL generation (0 when fresh) *)
  wal_generation : int option;
      (** the log's leading generation frame; [None] when the log is
          missing or its first frame is not an intact generation frame *)
  epoch : int;  (** promotion epoch recovered with the snapshot/log *)
  replayed_records : int;
      (** redo records applied from the log (commit markers excluded) *)
  replayed_batches : int;
  stale_wal : bool;  (** generation mismatch: log skipped *)
  stopped : string option;
      (** why replay stopped before the log's end, if it did *)
  last_commit_at : int option;
      (** instant (unix seconds) of the newest commit in the recovered
          state — the last stamped commit replayed, else the snapshot's
          own [asof] stamp *)
}

(** Rebuilds the catalog from [dir], creating the directory when
    missing (a fresh, empty database). Register extension types first.
    @raise Persist.Format_error on a corrupt snapshot — a damaged log
    never raises, it only bounds how far replay gets. *)
val recover : dir:string -> Catalog.t * info
