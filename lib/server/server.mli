(** The TIP database server: accepts client connections over TCP and
    executes their statements against one shared embedded database.

    One thread per client. Session threads are spread round-robin over
    the [Domains.size ()] domains: the accept loop's domain and the
    host domains ({!Tip_engine.Domains.on_domain}).
    Read-only statements ([SELECT], [EXPLAIN]) take the
    database lock shared and run side by side; every other statement
    takes it exclusive, preserving the single-writer semantics of
    embedded connections (DESIGN.md §17). A session a host domain fails
    to start is logged and journaled as a [thread_crash] event, and its
    connection closed. Errors become [E] responses and the session
    survives.

    Resource governance (DESIGN.md §10): every statement runs under a
    {!Tip_core.Deadline} token armed with the session's statement
    timeout ([SET TIMEOUT n], defaulting to [statement_timeout_ms]);
    tripped tokens answer typed errors ([E TIMEOUT: ...],
    [E BUDGET: ...]). Admission control caps concurrent sessions
    ([max_sessions]; beyond it connections are answered
    [E OVERLOADED: ...] and closed), and {!drain} performs a graceful
    shutdown: stop accepting, cancel in-flight statements, wait. *)

type t

(** Creates the listening socket; [port 0] picks an ephemeral port.
    [idle_timeout] (seconds) closes sessions that stay silent that long
    with a final [E IDLE_TIMEOUT: ...] response, so abandoned clients
    cannot pin threads forever (and can tell the drop from a crash).
    [slow_ms] enables the slow-query log: statements taking at least
    that many milliseconds are reported through {!Tip_obs.Log_sink}
    with their text, latency, and row count. [max_sessions] bounds
    concurrent sessions (the kernel accept backlog is clamped to
    match). [statement_timeout_ms] is the default per-statement
    deadline; sessions override it with [SET TIMEOUT n] ([0] disables,
    [DEFAULT] restores the server default). *)
val listen :
  ?host:string ->
  ?idle_timeout:float ->
  ?slow_ms:float ->
  ?max_sessions:int ->
  ?statement_timeout_ms:int ->
  port:int ->
  Tip_engine.Database.t ->
  t

(** The actual bound port. *)
val port : t -> int

(** Blocking accept loop; returns after {!stop}. *)
val serve : t -> unit

(** Runs the accept loop on a background thread. *)
val serve_in_background : t -> unit

val stop : t -> unit

(** Graceful drain: stop accepting, cancel every in-flight statement
    via its token (each aborts within one row or chunk boundary,
    journals nothing, and is answered [E SHUTDOWN: ...]), then wait up
    to [grace] seconds (default 5) for in-flight statements to finish
    unwinding. Returns the drain duration in seconds. The caller is
    expected to checkpoint the database afterwards. *)
val drain : ?grace:float -> t -> float

(** Whether {!drain} has begun (new statements are refused). *)
val draining : t -> bool

(** Sessions currently connected. *)
val active_sessions : t -> int

(** {1 Replication and high availability}

    A durable server is a potential primary: [S <gen> <offset> <epoch>]
    turns a session into a WAL byte stream (chunks, keepalives,
    subscriber acks on the same socket) and [P] serves a consistent
    snapshot bootstrap; per-subscriber lag is queryable as
    [tip_stat_replication]. A subscription whose promotion epoch does
    not match the server's is fenced with [E STALE_EPOCH: ...] before
    any byte is shipped (split-brain protection, DESIGN.md §15). [W]
    answers [M role <primary|replica> <epoch>] for client failover
    discovery. {!drain} answers every open stream [E SHUTDOWN].
    Streamed chunks pass the [repl.send] failpoint and the bootstrap
    passes [repl.snapshot], so tests can drop/delay/truncate/bit-flip
    frames in flight. *)

(** The database lock. The replication client on a replica shares it
    so stream replay (exclusive) and reads (shared) interleave safely. *)
val db_lock : t -> Rwlock.t

(** Installs the staleness probe answering [L] requests — on a replica,
    seconds behind the primary (a primary answers [0] by default). *)
val set_staleness_probe : t -> (unit -> float) -> unit

(** Installs the promotion handler a served replica runs on [PROMOTE]
    (wire statement or SIGUSR1 via {!promote}). The handler is invoked
    outside the db lock — it owns its own locking — and returns the new
    [(generation, epoch)] or a typed error. *)
val set_promote_handler : t -> (unit -> (int * int, string) result) -> unit

(** Runs the installed promotion handler (the SIGUSR1 path). *)
val promote : t -> (int * int, string) result

(** Live replication subscribers (primary side). *)
val replica_count : t -> int
