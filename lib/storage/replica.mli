(** Incremental replay of a shipped WAL stream (DESIGN.md §13).

    Buffers raw WAL bytes as they arrive from the primary and drives
    {!Wal.replay} over them — the one loop crash recovery and restore
    drive too — so only whole committed batches reach the catalog and
    no frame is cut twice. The buffer is compacted to the last commit
    boundary once per {!feed}. The confirmed position
    ({!applied_offset}) moves exclusively at commit boundaries, so a
    disconnect mid-batch costs nothing: {!reset_stream} drops the open
    fragment and the subscriber resumes from the last statement
    boundary.

    A generation frame that does not match the replica's bootstrap
    generation means the primary checkpointed and truncated its log;
    it surfaces as [Apply_failed] and the caller must re-bootstrap
    ({!rebase} after loading the fresh snapshot) instead of diverging.
    A frame carrying a different promotion epoch is fenced the same
    way — a failover happened around this stream (DESIGN.md §15).

    Not thread-safe: callers serialize {!feed} with reads under the
    database lock. *)

type error =
  | Stream_corrupt of string
      (** a damaged frame — CRC mismatch, torn header, or an
          unconfirmed tail past the buffering cap; drop the connection
          and resume from {!applied_offset} *)
  | Apply_failed of string
      (** the stream does not fit the replica's state (generation or
          epoch change, record/catalog mismatch); re-bootstrap *)

type t

(** A replica positioned at byte [offset] of the generation-[generation]
    WAL stamped with promotion epoch [epoch], with [catalog] already
    holding the matching base state. [max_pending] caps the received
    unconfirmed bytes (default 16 MiB): a stream that never reaches a
    commit boundary within the cap is classified [Stream_corrupt]. *)
val create :
  ?max_pending:int -> Catalog.t -> generation:int -> epoch:int -> offset:int -> t

(** Ingests stream bytes, applying every complete committed batch; the
    failpoint site [repl.apply] is hit once before each. On [Error] the
    replica's confirmed state is still consistent (the failing batch
    was not partially applied unless the failure came from mid-batch
    [Wal.apply], which only happens on a stream that lies about its
    base state — re-bootstrap repairs both cases). A batch that breaks
    a constraint or does not fit the catalog is [Apply_failed]. *)
val feed : t -> string -> (unit, error) result

(** Drops the half-received tail, keeping all confirmed state. *)
val reset_stream : t -> unit

(** Re-points the replica at a fresh snapshot's generation, epoch and
    offset (the caller swaps catalog contents via [Catalog.assign]
    first). *)
val rebase : t -> generation:int -> epoch:int -> offset:int -> unit

val generation : t -> int
val epoch : t -> int
val applied_offset : t -> int
val applied_commits : t -> int

(** Instant (unix seconds) of the newest stamped commit applied from
    the stream — the replica's applied-state clock. *)
val last_commit_at : t -> int option

val catalog : t -> Catalog.t
