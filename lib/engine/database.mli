(** The database facade: parse, bind NOW, plan, execute.

    Sessions: everything one client owns — its open transaction and
    that transaction's journal, its NOW override, its statement timeout
    — lives in a {!session}. Every entry point takes an optional
    [session]; without one it uses the database's own session, so
    embedded callers that never open a second session see one
    connection's worth of state. A server opens one session per client.

    NOW handling (the paper's Sections 2/4): each statement binds the
    special symbol NOW exactly once, to the current transaction time —
    the wall clock, or the session's override installed by
    [SET NOW = ...] (the browser's what-if mechanism). The binding
    travels in the statement's evaluation context, so every blade
    routine, cast and comparison observes the same frozen instant.

    Transactions keep an in-memory journal (insert/delete/update are
    undoable; DDL auto-commits). One session at a time may have a
    transaction open; while it does, every other session's statement
    is refused with a typed [BUSY:] {!Error}. *)

open Tip_storage
module Ast = Tip_sql.Ast

exception Error of string

type t

(** One client's state: open transaction, journal, NOW override and
    statement timeout. *)
type session

type result =
  | Rows of { names : string list; rows : Value.t array list }
  | Affected of int  (** DML row count *)
  | Message of string  (** DDL acknowledgements, EXPLAIN text, ... *)

(** A fresh database with built-in scalar functions installed. Pass
    [catalog] to open over a snapshot restored with
    {!Tip_storage.Persist.load} (register extension types first). *)
val create : ?catalog:Catalog.t -> unit -> t

val catalog : t -> Catalog.t

(** The registry a DataBlade installs into. *)
val extension : t -> Extension.t

(** A new session. It starts from the NOW override and statement
    timeout that the database's own session has now; [timeout_ms]
    replaces the timeout. [SET NOW DEFAULT] and [SET TIMEOUT DEFAULT]
    restore these starting values. *)
val session : ?timeout_ms:int -> t -> session

(** Ends a session: rolls back its open transaction, if any. *)
val close_session : t -> session -> unit

(** The session's [SET NOW] override, if any. *)
val now_override : ?session:session -> t -> Tip_core.Chronon.t option

(** Sets the session's NOW override, as [SET NOW] does; [None] restores
    the NOW the session started with, as [SET NOW DEFAULT] does. *)
val set_now : ?session:session -> t -> Tip_core.Chronon.t option -> unit

(** Whether the session has a transaction open. *)
val in_transaction : ?session:session -> t -> bool

(** {1 Execution}

    Every entry point accepts a governance [token]
    ({!Tip_core.Deadline.t}). The executor polls it at chunk boundaries;
    when it trips — deadline, budget, client interrupt, drain — the
    statement raises [Deadline.Cancelled], its partial in-memory effects
    are reverted, and none of its records reach the WAL (the log keeps a
    clean statement prefix). The session's [SET TIMEOUT n] deadline is
    layered under ungoverned callers and under tokens with no deadline
    of their own. *)

(** Parses and executes one statement; [params] binds [:name] host
    variables.
    @raise Error (and planner/eval/constraint exceptions) on failure.
    @raise Tip_core.Deadline.Cancelled when [token] trips. *)
val exec :
  ?token:Tip_core.Deadline.t ->
  ?params:(string * Value.t) list ->
  ?session:session ->
  t ->
  string ->
  result

(** Executes an already-parsed statement. [fingerprint] keys the
    {!Tip_obs.Introspect} store ([tip_stat_statements]): callers that
    have the statement's text pass {!Tip_sql.Lexer.fingerprint_tokens}
    of the tokens they parsed. When absent the pretty-printed AST is
    fingerprinted instead; that is a different key for the same text
    (the printer parenthesizes), so it serves only statements that never
    had text.

    Read-only statements ({!read_only_statement}) write no field of the
    database and keep no per-statement state in globals, so callers may
    run any number of them concurrently (from threads or domains) as
    long as no other statement runs at the same time. *)
val exec_statement :
  ?token:Tip_core.Deadline.t ->
  ?fingerprint:string ->
  ?session:session ->
  t ->
  params:(string * Value.t) list ->
  Ast.statement ->
  result

(** [SELECT], compound [SELECT], [EXPLAIN [ANALYZE]], [SET NOW] and
    [SET TIMEOUT]: the statements that may share the database with each
    other (the last two write only their own session). *)
val read_only_statement : Ast.statement -> bool

(** Runs a [';']-separated script; returns the last result. Each
    statement is keyed in the statement store by its own tokens, so it
    shares its row with the same text run through {!exec}. *)
val exec_script :
  ?token:Tip_core.Deadline.t ->
  ?params:(string * Value.t) list ->
  ?session:session ->
  t ->
  string ->
  result

(** The session's statement deadline ([SET TIMEOUT]), in
    milliseconds. *)
val statement_timeout_ms : ?session:session -> t -> int option

(** {1 Durability}

    A durable database pairs the in-memory engine with an on-disk
    directory holding a snapshot and a write-ahead log. Every committed
    DML/DDL statement is appended to the log (as a batch closed by a
    commit marker) before its result is returned; [CHECKPOINT] — or the
    automatic record-count trigger — atomically rewrites the snapshot
    and truncates the log. *)

(** Opens (creating if needed) the durable database in [dir]: loads the
    newest valid snapshot, replays the committed WAL tail (stopping
    cleanly at the first torn or corrupt record), then checkpoints so
    the recovered state becomes the new snapshot. Register extension
    types before calling; install the blade on the returned database
    afterwards. [sync] controls when the log is fsynced (default
    {!Wal.Always}: a statement's effects survive any later crash once
    its result has been returned). [checkpoint_every] bounds the log
    at that many records (default 10_000; [0] disables auto-checkpoint).
    [archive_dir] turns on WAL archiving: every generation the database
    retires — at checkpoints, and the recovered log on open — is sealed
    into that directory's chain ({!Archive}) instead of existing only
    until truncation. *)
val open_durable :
  ?sync:Wal.sync_policy ->
  ?checkpoint_every:int ->
  ?archive_dir:string ->
  dir:string ->
  unit ->
  t * Recovery.info

(** Directory backing this database, if opened with {!open_durable}. *)
val durability_dir : t -> string option

(** Forces a checkpoint: writes the snapshot atomically, truncates the
    WAL. Returns the number of log records truncated. No-op (returning
    [0]) without durable storage.
    @raise Error (typed [BUSY:]) while a transaction is open. *)
val checkpoint : t -> int

(** Detaches and closes the WAL without checkpointing; safe after a
    simulated crash. Graceful shutdown should [checkpoint] first. An
    [Every_n] sync policy's unsynced tail is fsynced on the way out so
    a clean close never abandons commits the policy was still holding. *)
val close_durable : t -> unit

(** {1 Replication and high availability}

    The primary side of WAL shipping (DESIGN.md §13) and the HA
    surfaces built on it (§15). The replication calls must run under
    the server's database lock so the (generation, offset, epoch)
    tuples they return are consistent with the catalog and the log. *)

(** Marks the database as a read replica: every statement that would
    mutate rows, the catalog, or transaction state is refused with a
    typed [READ_ONLY:] {!Error}. Reads, EXPLAIN, SHOW/DESCRIBE/STATS,
    ANALYZE, COPY TO and SET TIMEOUT/NOW still run. *)
val set_read_only : t -> bool -> unit

val read_only : t -> bool

(** The promotion epoch this database's generation frames carry —
    [0] until a promotion somewhere in its ancestry bumped it (and for
    non-durable databases). *)
val epoch : t -> int

(** Instant (unix seconds) of the newest commit in the log, if any. *)
val last_commit_at : t -> int option

(** Current WAL generation, end-of-log byte offset and promotion epoch
    — where a fully caught-up subscriber stands. [None] without
    durable storage. *)
val replication_state : t -> (int * int * int) option

(** Path of the live WAL file, for the primary's stream reader. *)
val replication_wal_path : t -> string option

(** Highest WAL generation sealed into the attached archive — the
    [archive_generation] column of [tip_stat_replication]. [None]
    without an archive, or before the first seal. *)
val archive_generation : t -> int option

(** The bootstrap payload: [(generation, snapshot_text, wal_offset,
    epoch)], mutually consistent. [None] without durable storage.
    @raise Error (typed [BUSY:]) while a transaction is open — the
    snapshot would leak uncommitted rows. *)
val replication_snapshot : t -> (int * string * int * int) option

(** Renders an online backup into [dir] ([BACKUP TO 'dir']): the
    consistent snapshot plus its {!Archive.origin} stamp. Must run
    under the server's database lock.
    @raise Error without durable storage, or (typed [BUSY:]) while a
    transaction is open. *)
val backup : t -> dir:string -> Archive.origin

(** Turns a read-only replica into a writable primary rooted at [dir]:
    saves the streamed state as a full snapshot stamped with [gen] and
    the bumped promotion epoch [epoch], opens a fresh WAL under that
    epoch, clears the read-only mark. [asof] is the replica's newest
    applied commit instant. Called by the server's PROMOTE handler —
    the replication client owns the gen/epoch bookkeeping. *)
val promote_replica :
  ?sync:Wal.sync_policy ->
  ?checkpoint_every:int ->
  ?archive_dir:string ->
  ?asof:int ->
  t ->
  dir:string ->
  gen:int ->
  epoch:int ->
  unit ->
  unit

(** {1 Result helpers}

    All raise {!Error} when the result has the wrong shape. *)

val rows_exn : result -> Value.t array list
val names_exn : result -> string list
val affected_exn : result -> int

(** Aligned text table (psql-style) for shells and examples. *)
val render_result : result -> string

(** A unix time as a TIP Instant when the blade has registered the type
    (the engine cannot depend on the blade), as a DATE otherwise. *)
val instant_value : float -> Value.t
