(** Client connections — the OCaml analog of the TIP C/Java libraries.

    A connection owns one {!Db.session} of its database: its own
    transaction, its own NOW override (Section 4's what-if mechanism)
    and its own statement timeout. Two clients of the same database
    evaluate queries in different temporal contexts, from one thread
    or several, and neither sees the other's settings. While one
    connection has a transaction open, the others' statements fail
    with a typed [BUSY:] error. *)

module Db = Tip_engine.Database

exception Client_error of string

type t

(** Opens a connection to a fresh embedded database; the TIP blade is
    installed unless [blade:false]. *)
val connect : ?blade:bool -> unit -> t

(** Attaches to an existing database (shared embedded server). The new
    session starts from the NOW override and statement timeout of the
    database's own session. *)
val connect_to : Db.t -> t

(** Closes the connection, rolling back its open transaction, if any. *)
val close : t -> unit

val is_closed : t -> bool
val database : t -> Db.t

(** The engine session this connection owns. *)
val session : t -> Db.session

(** {1 What-if analysis} *)

(** Evaluate this session's statements as if NOW were the given
    chronon. *)
val set_now : t -> Tip_core.Chronon.t -> unit

(** Back to the NOW the connection started with. *)
val clear_now : t -> unit

(** The what-if NOW in force: the session's NOW override when it
    differs from the one the connection started with. *)
val session_now : t -> Tip_core.Chronon.t option

(** {1 Execution} *)

(** @raise Client_error when the connection is closed. *)
val execute : ?params:(string * Tip_storage.Value.t) list -> t -> string -> Db.result

val execute_script :
  ?params:(string * Tip_storage.Value.t) list -> t -> string -> Db.result

(** Single-shot query returning a cursor-style result set. *)
val query :
  ?params:(string * Tip_storage.Value.t) list -> t -> string -> Result_set.t

(** @raise Client_error when the statement is not DML. *)
val execute_update :
  ?params:(string * Tip_storage.Value.t) list -> t -> string -> int
