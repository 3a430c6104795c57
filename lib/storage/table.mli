(** A table: schema + heap + indexes, with constraint checking.

    Every mutation goes through this module so indexes and constraints
    cannot drift from the heap. A schema with a primary key gets a
    unique B+tree index ([<table>_pkey]) automatically. *)

exception Constraint_violation of string

type index_kind = Ordered | Interval

type index = {
  idx_name : string;
  idx_column : int;  (** column position in the schema *)
  idx_unique : bool;
  impl : index_impl;
}

and index_impl =
  | Ordered_impl of Btree.t
  | Interval_impl of Interval_index.t

type t

val create : Schema.t -> t
val schema : t -> Schema.t
val name : t -> string
val row_count : t -> int
val indexes : t -> index list

(** {1 Mutations}

    All raise {!Constraint_violation} on arity, type, NOT NULL or
    uniqueness violations, leaving the table unchanged. *)

(** Validates, stores, maintains every index; returns the row id. *)
val insert : t -> Value.t array -> int

(** Removes the row and its index entries; returns whether it existed. *)
val delete : t -> int -> bool

(** Replaces the row in place (index entries follow); restores the old
    index state if the new row violates a unique index. *)
val update : t -> int -> Value.t array -> bool

(** {1 Reads} *)

val get : t -> int -> Value.t array option
val get_exn : t -> int -> Value.t array
val rids : t -> int list

(** The row ids a full scan visits, fixed when it starts. *)
type scan =
  | Slots of int  (** every id below this count: the heap has no tombstones *)
  | Rids of int array  (** these live ids, ascending (see {!Heap.rids_array}) *)

(** A full scan's row ids. A row deleted after the call reads as absent,
    and a slot first used after it is not visited. *)
val scan : t -> scan
val iteri : (int -> Value.t array -> unit) -> t -> unit
val fold : ('a -> Value.t array -> 'a) -> 'a -> t -> 'a

(** {1 Access counters}

    Cheap per-table statistics for the [tip_stat_tables] catalog,
    charged in bulk (one atomic add per scan entry, one per mutation),
    never per row. *)

(** Full-scan entries ({!rids}, {!scan}, {!iteri}, {!fold}). *)
val scan_count : t -> int

(** Cumulative live rows visible to those scans. *)
val scan_row_count : t -> int

(** Successful inserts, deletes and updates. *)
val write_count : t -> int

(** {1 Optimizer statistics}

    Collected by ANALYZE, consumed by the planner's cost model. *)

(** The last ANALYZE result; [None] until one runs. *)
val stats : t -> Stats.t option

(** One heap pass building fresh statistics: row count plus period
    start/length histograms for every column whose values expose
    temporal extents. Stores and returns the result. [analyzed_at] is
    the statement's NOW, already rendered. *)
val analyze : ?buckets:int -> analyzed_at:string -> t -> Stats.t

(** {1 Secondary indexes} *)

val find_index : t -> string -> index option

(** The first index of the given kind on a column position, if any. *)
val index_on_column : t -> kind:index_kind -> int -> index option

(** Creates and backfills an index; a unique violation during backfill
    aborts without registering it.
    @raise Constraint_violation on duplicate name or backfill failure. *)
val create_index :
  t -> idx_name:string -> column:string -> unique:bool -> kind:index_kind ->
  index

val drop_index : t -> string -> bool

(**/**)

val validate_row : t -> Value.t array -> Value.t array
