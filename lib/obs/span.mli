(** Spans: the one clock of statements and waits (DESIGN.md §9, §16).

    A span reads {!Tip_core.Deadline.now_ns} once at {!start} and once
    at {!stop}. Its kind is a layer of a statement or a wait class.
    Stopping it feeds its kind's totals: a wait class's count and
    nanoseconds ([tip_stat_waits]), or for [Statement] and [Engine] the
    [server_statement_ns] / [engine_statement_ns] histograms and their
    [_total] counters. Everything else that reports a time (the
    statement store, the slow log, EXPLAIN ANALYZE, the Chrome export)
    reads {!elapsed_ns}.

    Spans nest through the calling thread's registered {!session}: a
    span started while the session has one open is its child, and the
    session's innermost open wait class is what ASH samples. On a
    thread with no session a span is a root unless [?parent] names
    one. A tree belongs to one thread until it is finished. *)

type kind =
  | Statement  (** a wire statement, request to response *)
  | Engine  (** one [Database.exec_statement] *)
  | Plan  (** planning, under EXPLAIN ANALYZE *)
  | Execute  (** execution, under EXPLAIN ANALYZE *)
  | DbLock  (** queued on the database lock *)
  | WalFsync  (** fsync of the WAL (or snapshot/manifest) fd *)
  | WalAppend  (** writing framed records into the WAL *)
  | ArchiveSeal  (** sealing a WAL generation into the archive *)
  | ReplicaApply  (** replaying a streamed commit batch *)
  | ClientRead  (** blocked reading the next client request *)
  | ClientWrite  (** blocked writing a response *)
  | Checkpoint  (** a whole checkpoint, its own fsyncs included *)
  | Admission  (** turning away a connection over [max_sessions] *)

val waits : kind list
(** The wait classes, in [tip_stat_waits] order. *)

val label : kind -> string
(** ["statement"], ["engine"], ["plan"], ["execute"], or the wait
    class's name (["DbLock"], ...). *)

(** {1 Sessions} *)

(** What a session is doing; replaced whole, so no reader sees half an
    update. *)
type activity = {
  state : string;  (** ["idle"], ["active"] or ["idle in transaction"] *)
  query : string option;  (** the statement's text *)
  fingerprint : string option;  (** its shape, shown by ASH *)
  since : float;  (** unix time the state began *)
  token : Tip_core.Deadline.t option;  (** the running statement's *)
}

type t

(** A live session (a wire client, the replication follower) in the
    process's one table of them, keyed by thread. *)
type session = private {
  id : int;
  kind : string;  (** ["client"], ["replication"], ... *)
  owner : int;  (** the server that accepted it; 0 for none *)
  addr : string;
  fd : Unix.file_descr option;
  thread : int;
  mutable activity : activity;
  mutable current : t option;  (** the innermost open span *)
}

val register :
  ?owner:int -> ?addr:string -> ?fd:Unix.file_descr -> ?fingerprint:string ->
  id:int -> kind:string -> unit -> session
(** Adds a session bound to the calling thread, idle since now;
    [fingerprint] is what ASH shows for it outside statements. *)

val unregister : session -> unit
val sessions : unit -> session list

val begin_statement :
  session -> query:string -> fingerprint:string ->
  token:Tip_core.Deadline.t -> unit

val end_statement : session -> in_transaction:bool -> unit

val ash_state : session -> string option
(** The innermost open wait class's label, or ["Cpu"] while a
    statement is active outside any wait; [None] when idle. *)

(** {1 Spans} *)

val start : ?parent:t -> kind -> t
(** A child of [parent], else of the session's innermost open span,
    else a root. *)

val stop : t -> unit
(** Idempotent. *)

val with_ : ?parent:t -> kind -> (unit -> 'a) -> 'a
(** Runs the thunk inside a span, stopped however the thunk leaves. *)

val kind : t -> kind
val elapsed_ns : t -> int
val children : t -> t list
(** In start order. *)

val find_child : t -> kind -> t option
val root : t -> t

type attr = Text of string | Chronon of Tip_core.Chronon.t

val annotate : t -> string -> attr -> unit
val attrs : t -> (string * attr) list

val render : t -> string
(** Indented text; attributes are printed only here and in the
    export. {v statement (1.234 ms) [now=2001-06-01]
      engine (1.102 ms) v} *)

val wait_stats : unit -> (kind * int * int) list
(** [(class, completed waits, total ns)] per wait class, in {!waits}
    order. *)

(** {1 Chrome trace-event export}

    A finished tree as an array of complete (["ph":"X"]) events, [ts]
    and [dur] in microseconds from the root, attributes as [args];
    [about:tracing] and Perfetto load it. *)

val to_chrome_json : t -> string

val trace_dir : unit -> string option
(** Seeded from [TIP_TRACE_DIR], set by [tip_serve --trace-dir];
    [None] disables export. *)

val set_trace_dir : string option -> unit

val export_chrome : t -> string option
(** Writes [trace-<ms>-<seq>.json] into the directory (created if
    needed) and returns its path; [None] when export is off or the
    write fails, which never fails the statement. *)
