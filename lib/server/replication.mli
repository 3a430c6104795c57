(** The replica-side replication client (DESIGN.md §13).

    [start] spawns one background thread that connects to the primary,
    bootstraps a snapshot if it has none (or its generation went stale),
    subscribes to the WAL stream from its confirmed offset, and replays
    committed batches into the shared catalog under the database lock.
    Every failure routes somewhere safe: corrupt or torn frames drop the
    connection and resume from the last commit boundary; a generation
    change forces a fresh bootstrap; a lost or draining primary parks
    the client in bounded-exponential-backoff reconnect while the
    replica keeps serving reads with honestly growing staleness.

    Registers a replica-side [tip_stat_replication] virtual table (one
    row describing the primary) on [start]. *)

type t

(** Starts replicating [db] from the primary at [host]:[port]. [lock]
    is the database lock replay shares with readers — pass the server's
    {!Server.db_lock}: replay, bootstrap and promotion take it
    exclusive, so no statement runs beside them. The thread
    retries forever until {!stop}; a primary that is down at start is
    simply retried. [resume] is a rejoining node's local
    [(generation, offset, epoch)] — offered as a subscription before
    falling back to a bootstrap, so an ex-primary's recovered state is
    either reused (primary accepts) or discarded (fenced with
    [STALE_EPOCH], or [GEN_CHANGED]) and replaced by a fresh snapshot:
    the demotion path. *)
val start :
  ?lock:Rwlock.t ->
  ?resume:int * int * int ->
  host:string ->
  port:int ->
  Tip_engine.Database.t ->
  t

(** Stops the thread and closes the connection. Idempotent. *)
val stop : t -> unit

(** Bytes between the primary's known end of log and the last offset
    this replica confirmed at a commit boundary. *)
val lag_bytes : t -> int

(** Seconds since the replica last proved it was caught up. Near zero
    while streaming; grows without bound once the primary is lost. *)
val staleness_seconds : t -> float

(** ["connecting"], ["bootstrapping"], ["streaming"], ["disconnected"],
    ["promoted"], or ["stopped"]. *)
val state : t -> string

(** Stops following the primary and turns the database into a writable
    primary rooted at [dir] (DESIGN.md §15): joins the follower thread
    (the frozen state is a commit boundary — replay only ever applies
    whole batches), saves the streamed state as a full snapshot, opens
    a fresh WAL under a promotion epoch one past anything this client
    has seen, and clears the read-only mark. Returns the new
    [(generation, epoch)]. Idempotent in effect but meant to run once;
    fails if the client never completed a bootstrap. *)
val promote :
  ?sync:Tip_storage.Wal.sync_policy ->
  ?checkpoint_every:int ->
  ?archive_dir:string ->
  t ->
  dir:string ->
  unit ->
  (int * int, string) result

(** The newest promotion epoch the primary has shown this client. *)
val epoch : t -> int

(** Times this client was fenced with [STALE_EPOCH] (then demoted to a
    fresh bootstrap under the new epoch). *)
val fence_rejections : t -> int

(** WAL generation currently replicated (0 before first bootstrap). *)
val generation : t -> int

(** Last confirmed byte offset in the primary's WAL. *)
val applied_offset : t -> int

(** Connection attempts that reached the primary. *)
val reconnects : t -> int

(** Snapshot bootstraps completed (1 after a clean start; more after
    generation changes). *)
val bootstraps : t -> int

(** Severs the current connection without stopping the loop, so the
    reconnect/backoff path runs — fault-injection hook for tests and
    benchmarks. *)
val inject_disconnect : t -> unit
