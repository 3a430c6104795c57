(** A writer-preferring shared/exclusive lock, safe across threads and
    domains. Any number of readers hold it shared at once; a writer
    holds it exclusive. A waiting writer blocks new readers, so writes
    are not starved by a stream of reads. Not reentrant. *)

type t

val create : unit -> t

val lock_shared : t -> unit
val unlock_shared : t -> unit

(** Exclusive acquisition and release. *)
val lock : t -> unit

val unlock : t -> unit

(** [with_shared t f] runs [f] holding [t] shared (exception-safe). *)
val with_shared : t -> (unit -> 'a) -> 'a

(** [with_exclusive t f] runs [f] holding [t] exclusive. *)
val with_exclusive : t -> (unit -> 'a) -> 'a
