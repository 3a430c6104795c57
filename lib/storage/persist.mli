(** Textual snapshot persistence for a whole catalog.

    Cell values are serialized through each type's printer and re-parsed
    on load, which is exact because every value type round-trips through
    its literal syntax; in particular NOW-relative timestamps are stored
    symbolically. Extension types must be registered before {!load}.

    {!save} is atomic: the snapshot is written to [<path>.tmp], fsynced
    and renamed into place, so an interrupted save never clobbers the
    previous snapshot. Write-ahead logging and recovery live in {!Wal}
    and {!Recovery} (DESIGN.md §8). *)

exception Format_error of string

(** Writes every table (schema, indexes, rows) to the file, atomically
    (tmp + fsync + rename). [wal_gen] stamps the snapshot with the WAL
    generation it pairs with (see {!Recovery}); [epoch] with the
    promotion epoch; [asof] with the instant (unix seconds) of the
    newest commit folded into it (the backup base instant PITR refuses
    to restore before). *)
val save : ?wal_gen:int -> ?epoch:int -> ?asof:int -> Catalog.t -> string -> unit

(** The snapshot text {!save} would write, for diffing and tests. *)
val snapshot_string :
  ?wal_gen:int -> ?epoch:int -> ?asof:int -> Catalog.t -> string

(** The header stamps a snapshot carries alongside its tables. Absent
    lines (pre-HA snapshots) read as [None] / epoch 0. *)
type meta = {
  m_wal_gen : int option;
  m_epoch : int;
  m_asof : int option;
}

(** Rebuilds a catalog from a snapshot: rows re-inserted, secondary
    indexes recreated and backfilled. Equal CHAR cells share one value
    (an intern table that lives for the one load).
    @raise Format_error on malformed input (bad cells and counts are
    classified with their line number, never a bare [Failure])
    @raise Sys_error on I/O failure. *)
val load : string -> Catalog.t

(** Like {!load}, also returning the header stamps. *)
val load_meta : string -> Catalog.t * meta

(** Like {!load_meta} but from snapshot text in memory — the inverse of
    {!snapshot_string}, used by replication bootstrap where the snapshot
    arrives over the wire rather than from a file. *)
val load_string : string -> Catalog.t * meta

(**/**)

val serialize_value : Value.t -> string

(** [intern] shares equal CHAR cells: a cell equal to one it holds
    reads as that value, and a new one is added. *)
val parse_value :
  ?intern:(string, Value.t) Hashtbl.t -> Schema.col_type -> string -> Value.t

val parse_row :
  ?intern:(string, Value.t) Hashtbl.t -> Schema.col_type array -> string array ->
  Value.t array
val serialize_row : Value.t array -> string
val escape_cell : string -> string
val unescape_cell : string -> string

(** The wire's cell escaping: {!escape_cell} plus [\x01] (the wire's
    cell separator) as [\1]. *)
val escape_wire : string -> string

val unescape_wire : string -> string

(** [escape_wire] in place over a buffer's bytes from a position on,
    scanned in a reusable scratch that grows as needed. *)
val escape_wire_from : Bytes.t ref -> Buffer.t -> int -> unit

(** [unescape_wire (String.sub s pos len)] with one copy at most. *)
val unescape_wire_sub : string -> int -> int -> string
val column_line : Schema.column -> string
val parse_column_line : string -> Schema.column
