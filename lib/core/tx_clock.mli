(** Source of the current transaction time.

    NOW is interpreted as the current transaction time during query
    evaluation, so the engine binds one chronon from this clock per
    statement. An override supports deterministic tests and the
    browser's what-if analysis. *)

(** Current transaction time: the override if set, else the wall clock. *)
val now : unit -> Chronon.t

val set_override : Chronon.t -> unit
val clear_override : unit -> unit

(** Runs [f] with NOW bound to the given chronon, restoring the previous
    binding afterwards (exception-safe). *)
val with_override : Chronon.t -> (unit -> 'a) -> 'a
