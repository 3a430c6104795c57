(** A session and its journal of undo (and, with a log attached, redo)
    entries, with the commit boundary that hands them to {!Durable}. *)

open Tip_storage

type undo =
  | U_insert of Table.t * int
  | U_delete of Table.t * Value.t array
  | U_update of Table.t * int * Value.t array  (** rid and the old row *)

type entry

(** One client's journal (newest first), NOW override and statement
    timeout, each with the value it started with. *)
type session = {
  mutable journal : entry list;
  now_default : Tip_core.Chronon.t option;
  mutable now_override : Tip_core.Chronon.t option;
  timeout_default : int option;
  mutable timeout_ms : int option;
}

val session : now:Tip_core.Chronon.t option -> timeout_ms:int option -> session

(** The override, else the transaction clock. *)
val now : session -> Tip_core.Chronon.t

val row_cells : Value.t array -> string array

(** [redo] (a log is attached) adds the entry's redo record. *)
val log_change : redo:bool -> session -> undo -> unit

val log_ddl : redo:bool -> session -> Wal.record -> unit

(** [revert_to mark journal] undoes and drops every entry newer than
    [mark], a suffix of [journal], DDL records included. *)
val revert_to : entry list -> entry list -> entry list

(** Undoes every row change; DDL entries stay. *)
val rollback : session -> unit

(** Savepoint names are compared as given; the caller folds case. *)
val savepoint : session -> string -> unit

(** Both [false] when no savepoint of that name is open. *)
val rollback_to : session -> string -> bool
val release : session -> string -> bool

(** For a session outside a transaction: the journal reaches the log,
    if any, as one batch plus a commit marker stamped with the session's
    NOW, then empties. *)
val end_of_statement : Durable.t option -> session -> unit
