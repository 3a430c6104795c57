(** The remote client: one connection handle over the wire protocol,
    shaped like an embedded connection. Typed values are rebuilt on
    this side, so register the blade types
    ({!Tip_blade.Values.register_types}) before connecting when results
    contain temporal columns.

    A handle comes in one of three shapes, all driven through the same
    {!execute}/{!bind}/{!close}:
    - {b direct} ([connect ~port ()]): one socket, every statement sent
      as is. No role probe, no routing, no replay, no client-side parse.
      A lost connection stays lost: every later call raises.
    - {b group} ([~group]): [host:port] and the [group] endpoints form
      one HA group (DESIGN.md §15). The handle probes every member's
      role and promotion epoch ([W]) and uses the writable primary with
      the newest epoch; a primary claiming an epoch older than one
      already seen is a fenced ex-primary and is never used.
    - {b routed} ([~replica]): reads ([SELECT], [EXPLAIN]: the
      statements {!Tip_engine.Database.read_only_statement} runs under
      a shared lock) go to the replica while it is reachable and —
      with [max_staleness] — fresh enough (probes cached for 0.2 s).
      Everything else, SHOW/DESCRIBE/STATS included, goes to the
      primary. A too-stale replica falls back to the primary, or raises
      [STALE_READ:] under [on_stale = `Error]; a dead one is dropped.

    Group and routed handles classify each statement once with the SQL
    parser. They track BEGIN/COMMIT/ROLLBACK, so inside a transaction
    every statement goes to the primary, and they replay [SET NOW] and
    [SET TIMEOUT] on every connection they hold or later open. They
    re-send a statement only when it is a read outside a transaction,
    or when the server refused it without running it ([SHUTDOWN], the
    [IDLE_TIMEOUT] farewell, a connection found dead before the send,
    and on a group [READ_ONLY] and [STALE_EPOCH]). A write whose fate
    is unknown — a wire [TIMEOUT], or a socket lost after the send —
    raises instead of running twice; inside a transaction a lost
    session raises [SESSION_LOST:] and leaves the handle out of the
    transaction. *)

exception Remote_error of string

(** Classification of a {!Remote_error} message. The server's
    governance layer prefixes typed failures ([TIMEOUT: ...],
    [OVERLOADED: ...], [BUDGET: ...], [SHUTDOWN: ...],
    [IDLE_TIMEOUT: ...], [CANCELLED: ...]); client-side wire timeouts
    use the same [TIMEOUT:] prefix. Anything else — engine errors and a
    lost connection — is [Other]. *)
type error_code =
  | Timeout
  | Overloaded
  | Budget
  | Shutdown
  | Idle_timeout
  | Cancelled
  | Read_only
      (** the statement would write and the server is a read replica *)
  | Stale_read
      (** a routed read refused because the replica exceeds the
          [max_staleness] bound (client-side) *)
  | Stale_epoch
      (** a replication subscription fenced: the peer's promotion epoch
          is older than the server's (split-brain protection) *)
  | Failover
      (** a group handle found no writable primary within its budget *)
  | Session_lost
      (** the session running the handle's transaction is gone; the
          server rolls back what it had not committed, so the caller
          restarts the transaction *)
  | Other

val error_code : string -> error_code

type t

(** Opens a handle on the server at [host:port] (default host
    127.0.0.1). Transient failures are retried: [attempts] tries in
    total (default 5) — TCP connects for a direct or routed handle,
    discovery passes over the whole group for a group handle — the
    first retry after [retry_delay] seconds (default 0.05), doubling
    with random jitter. The same budget bounds each {!execute}'s
    re-sends, the first of which goes out at once. [deadline] (seconds)
    caps the whole connect, retries included, and becomes the per-call
    wire bound: a hung server then fails calls with
    [Remote_error "TIMEOUT: ..."] instead of blocking forever.

    [group] (the other members of [host:port]'s HA group, possibly
    none) makes a group handle. [replica] makes a routed handle; a
    replica that cannot be reached leaves it primary-only.
    [max_staleness] and [on_stale] (default [`Primary]) bound its
    reads.
    @raise Remote_error when the server stays unreachable, or with a
    [FAILOVER:] message when a group has no writable primary. *)
val connect :
  ?host:string ->
  ?attempts:int ->
  ?retry_delay:float ->
  ?deadline:float ->
  ?group:(string * int) list ->
  ?replica:string * int ->
  ?max_staleness:float ->
  ?on_stale:[ `Primary | `Error ] ->
  port:int ->
  unit ->
  t

(** Binds a [:name] parameter for the next {!execute}. *)
val bind : t -> string -> Tip_storage.Value.t -> unit

(** Executes one statement. [deadline] (seconds) bounds this call's
    wire I/O (overriding the connect-time default for the call).
    @raise Remote_error on server-side errors and on every transport
    failure; use {!error_code} to classify. *)
val execute : ?deadline:float -> t -> string -> Tip_engine.Database.result

(** The server's metrics registry as a text dump ([M] request). *)
val metrics : ?deadline:float -> t -> string

(** Seconds the server's reads are behind its primary ([L] probe): a
    primary answers [0.], a replica its measured lag — growing without
    bound once it loses its primary. *)
val staleness : ?deadline:float -> t -> float

(** The server's current role ([W] probe) and its promotion epoch. *)
val role : ?deadline:float -> t -> [ `Primary | `Replica ] * int

(** The newest promotion epoch a group handle has observed. *)
val epoch : t -> int

(** Primary connections the handle re-opened after its first. *)
val failovers : t -> int

(** Whether a routed handle still holds its replica connection. *)
val on_replica : t -> bool

val close : t -> unit

(**/**)

(** The raw buffered channels over the primary socket — the
    replication client's entry to stream framing. *)
val channels : t -> in_channel * out_channel
