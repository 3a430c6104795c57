(** Translates SELECTs, bound by {!Binder}, into physical plans.

    The optimizer is deliberately simple but not a strawman: WHERE
    conjuncts push down to the scans they cover; equality conjuncts
    across two join inputs become hash joins; {!Access_path} reads each
    stored table by a B+tree range, an interval probe with an exact
    recheck, partition pruning or a full scan. Everything else is nested
    loops plus filters.
    Aggregation follows SQL scoping: group keys and aggregate calls get
    slots, and post-aggregation expressions may reference only those. *)

open Tip_storage
module Ast = Tip_sql.Ast

(** {!Binder.Plan_error}: bind and plan errors are one exception. *)
exception Plan_error of string

(** Binds and plans one SELECT; returns the plan and its output column
    names.
    @raise Plan_error on unknown/ambiguous names, aggregate misuse,
    correlated subqueries, and similar static errors. *)
val plan :
  ext:Extension.t ->
  ectx:Expr_eval.ctx ->
  Catalog.t ->
  Ast.select ->
  Plan.t * string array

(** Plans a UNION [ALL] tree; arms must agree on arity; names come from
    the first arm. *)
val plan_union :
  ext:Extension.t ->
  ectx:Expr_eval.ctx ->
  Catalog.t ->
  Ast.compound ->
  Plan.t * string array

(** Compiles [e] over rows of [scope] (a {!Binder.table_scope} for
    UPDATE/DELETE WHERE and SET, {!Binder.empty_scope} for INSERT values
    and SET NOW); its subqueries may correlate against [scope]. *)
val compile :
  ectx:Expr_eval.ctx -> Catalog.t -> Binder.scope -> Ast.expr -> Expr_eval.compiled

(** The scan leaf ([Seq_scan], [Index_scan] or [Interval_scan]) a
    SELECT over [table], bound in [scope], with this WHERE would read
    ({!Access_path.choose} over the conjuncts it would push): the
    candidate rows of a single-table UPDATE or DELETE. Every row the
    WHERE accepts is among them; the caller rechecks the WHERE. *)
val dml_access_path :
  ectx:Expr_eval.ctx -> Binder.scope -> Table.t -> Ast.expr option -> Plan.t

(** [Plan.to_string] without its final newline. *)
val explain : Plan.t -> string

(** EXPLAIN ANALYZE rendering: {!explain} of the executed (instrumented)
    plan plus a footer with phase timings, output row count, and the NOW
    chronon the statement was bound to. [now] is already rendered;
    [plan_ns]/[exec_ns] are the phase durations. *)
val explain_analyze :
  now:string -> rows:int -> plan_ns:int -> exec_ns:int -> Plan.t -> string
