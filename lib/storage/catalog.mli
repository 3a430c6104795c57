(** The system catalog: table names to table objects, plus a global
    index namespace (SQL's [DROP INDEX] takes no table name, so index
    names are unique database-wide). All names fold case. *)

exception Catalog_error of string

type t

val create : unit -> t

val find_table : t -> string -> Table.t option

(** @raise Catalog_error when the table does not exist. *)
val table_exn : t -> string -> Table.t

(** All table names, sorted. *)
val table_names : t -> string list

(** What a statement naming a table reads and writes: the schema it
    sees, the physical tables holding its rows, and the table a row
    belongs in. A flat table is one table routed to itself; a
    partitioned parent is its children, routed by {!Partition.route}. *)
type target = {
  tg_schema : Schema.t;
  tg_tables : Table.t list;
  tg_route : Value.t array -> Table.t;
      (** @raise Partition.Partition_error when no partition owns the row *)
  tg_partitioned : Partition.t option;
}

val target : t -> string -> target option

(** The WITH HISTORY shadow of table [name] and the position of its
    [_tt] column: [<name>_history], holding [name]'s columns plus a
    trailing [_tt]. It stays linked after [name] is dropped. *)
val history_of : t -> string -> (Table.t * int) option

(** @raise Catalog_error on duplicate table name. *)
val create_table : t -> Schema.t -> Table.t

(** Returns whether the table (or partitioned table — children and
    metadata go with it) existed; its indexes leave the namespace.
    @raise Catalog_error when [name] is a partition child: children are
    dropped through their parent. *)
val drop_table : t -> string -> bool

(** {1 Partitioned tables (DESIGN.md §14)}

    A partitioned parent is not itself a {!Table.t}: it is a
    {!Partition.t} descriptor over ordinary child tables named
    [<parent>__<partition>] that live in the catalog like any other
    table (and therefore index, ANALYZE, journal and replicate
    unchanged). *)

val find_partitioned : t -> string -> Partition.t option

(** Parent names, sorted. *)
val partitioned_names : t -> string list

(** Raises the owning part's end watermark when [table] is a partition
    child and [row] has a temporal extent; no-op otherwise. Every path
    that lands a row in a table (engine DML, WAL replay) calls this so
    pruning stays sound on primaries, replicas and after recovery. *)
val note_partition_write : t -> Table.t -> Value.t array -> unit

(** Creates the children ([<parent>__<partition>], one per declared
    partition, same columns as [schema]) and registers the descriptor.
    Nothing is left behind on failure.
    @raise Catalog_error / [Partition.Partition_error] on name clashes,
    overlapping ranges, duplicate partitions or >1 DEFAULT. *)
val create_partitioned :
  t ->
  Schema.t ->
  column:string ->
  parts:(string * (int * int) option) list ->
  Partition.t

(** Re-registers a loaded partition spec over child tables that already
    exist (snapshot load re-creates children first), rebuilding each
    child's end watermark from its rows. *)
val link_partitioned :
  t ->
  name:string ->
  schema:Schema.t ->
  column:string ->
  parts:(string * (int * int) option) list ->
  Partition.t

(** @raise Catalog_error on duplicate index name (database-wide). *)
val create_index :
  t ->
  idx_name:string ->
  table_name:string ->
  column:string ->
  unique:bool ->
  kind:Table.index_kind ->
  Table.index

val drop_index : t -> string -> bool

(** Replaces [t]'s contents (tables and index namespace) with [from]'s,
    keeping the handle itself — replication re-bootstrap swaps in a
    freshly loaded snapshot under the catalog object the engine and
    virtual tables already share. *)
val assign : t -> from:t -> unit
