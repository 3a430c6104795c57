(** A database's durability attachment: snapshot, write-ahead log,
    generation and promotion epoch (DESIGN.md §8, §15). *)

open Tip_storage

type t = private {
  dir : string;
  wal : Wal.writer;
  mutable gen : int;
  epoch : int;
  archive_dir : string option;
  checkpoint_every : int;
  mutable last_commit_at : int option;
}

(** Recovers [dir] and attaches at the next generation. *)
val recover :
  ?sync:Wal.sync_policy -> ?checkpoint_every:int -> ?archive_dir:string ->
  dir:string -> unit -> Catalog.t * Recovery.info * t

(** Attaches [catalog], a promoted replica's state, at [dir]. *)
val promote :
  ?sync:Wal.sync_policy -> ?checkpoint_every:int -> ?archive_dir:string ->
  ?asof:int -> Catalog.t -> dir:string -> gen:int -> epoch:int -> t

val close : t -> unit
val commit : t -> at:int -> Wal.record list -> unit

(** The log has reached [checkpoint_every] records. *)
val checkpoint_due : t -> bool

(** Returns the number of log records truncated. *)
val checkpoint : t -> Catalog.t -> int

(** The snapshot text and the origin it is consistent with. *)
val snapshot : t -> Catalog.t -> Archive.origin * string

val backup : t -> Catalog.t -> dir:string -> Archive.origin
val archive_generation : t -> int option
