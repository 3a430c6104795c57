(** Heap storage for one table: rows addressed by stable row ids.

    Deleted slots become tombstones and are recycled through a free
    list, so row ids stay valid for the indexes that reference them. *)

type row = Value.t array

type t

val create : unit -> t
val live_count : t -> int

(** Slots ever used, live or tombstoned: every row id is below it. *)
val slot_count : t -> int

(** Stores a row, reusing a tombstone slot when one is free; returns the
    row id. *)
val insert : t -> row -> int

(** [None] for out-of-range or deleted row ids. *)
val get : t -> int -> row option

(** @raise Invalid_argument when the row does not exist. *)
val get_exn : t -> int -> row

(** Returns whether the row existed. *)
val delete : t -> int -> bool

(** In-place replacement; returns whether the row existed. *)
val update : t -> int -> row -> bool

(** Iterates live rows in row-id order. *)
val iteri : (int -> row -> unit) -> t -> unit

val fold : ('a -> row -> 'a) -> 'a -> t -> 'a

(** Live row ids, ascending. *)
val rids : t -> int list

(** Live row ids, ascending, as a fresh array — the snapshot the
    batch executor's scan leaves read one chunk at a time. *)
val rids_array : t -> int array
