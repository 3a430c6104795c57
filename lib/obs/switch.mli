(** The one observability switch.

    On by default. Off, the {!Metrics} registry drops every write and
    the {!Introspect} store records nothing (the engine then skips the
    statement fingerprint as well). Spans keep timing either way: they
    are the clock of EXPLAIN ANALYZE, the slow log and [tip_stat_waits].
    There is no environment variable; the overhead benchmark and the
    tests flip it. *)

val on : unit -> bool
val set : bool -> unit
