(** Virtual-table registry: system telemetry as ordinary relations.

    The planner resolves a FROM-clause name against the catalog first
    and falls back to this registry, so [SELECT ... FROM
    tip_stat_statements] plans like any other query — filters, joins,
    ORDER BY, LIMIT and EXPLAIN all compose — while a real table of the
    same name shadows the virtual one. Each query materializes a fresh
    snapshot of the provider's rows.

    Built-in providers: the engine's (registered by {!Stat_tables}), plus
    [tip_stat_activity] (registered by the server, which owns the
    session table). *)

open Tip_storage

type provider = {
  vt_name : string;  (** lowercase relation name *)
  vt_cols : string array;  (** lowercase column names *)
  vt_help : string;  (** one-line description *)
  vt_rows : Catalog.t -> Value.t array list;
      (** snapshot of the rows; receives the querying database's
          catalog (global providers ignore it) *)
}

val register : provider -> unit
(** Registers (or replaces) the provider under its lowercase name. *)

val find : string -> provider option
(** Case-insensitive lookup. *)

val names : unit -> string list
(** Registered relation names, sorted. *)
