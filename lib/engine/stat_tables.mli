(** The engine's tip_stat virtual tables (statements, metrics, tables,
    partitions, waits, ASH, events), registered at module init so every
    database, embedded or served, resolves them. *)

val instant_value : float -> Tip_storage.Value.t
