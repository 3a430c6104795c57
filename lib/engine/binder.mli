(** Name binding: every table and column name of a SELECT, a subquery,
    an UPDATE/DELETE or an INSERT value list resolves here, against the
    catalog and the extension registry, into one kind of scope.

    A bound SELECT depends only on the statement and the catalog: the
    binder reads no NOW and evaluates nothing. The only literals it
    interprets are ORDER BY and GROUP BY ordinals. *)

open Tip_storage
module Ast = Tip_sql.Ast

(** Bind and plan errors ({!Planner.Plan_error} is this exception). *)
exception Plan_error of string

val plan_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** One FROM item: its qualifier (alias or table name, lowercase) and
    column names at its global offset. *)
type binding = { qual : string option; col_names : string array; offset : int }

(** The bindings of a FROM list, left to right. *)
type layout = binding list

(** @raise Plan_error on an unknown or ambiguous name. *)
val indices_of : layout -> Ast.expr -> int list

val conjuncts : Ast.expr -> Ast.expr list
val contains_agg : Extension.t -> Ast.expr -> bool
val contains_subquery : Ast.expr -> bool

type source =
  | Stored of Table.t
  | Partitioned of Partition.t
  | Virtual of Vtab.provider
  | History of {
      table : Table.t;  (** the [<name>_history] shadow table *)
      tt : int;  (** its [_tt] column, after the base columns *)
      at : Ast.expr;  (** the AS OF instant, evaluated by the planner *)
      support : Extension.history_support;
    }
  | Derived of select

(** The FROM tree; commas are inner joins without ON. *)
and from =
  | Base of source * binding
  | Join of from * Ast.join_kind * Ast.expr option * from

(** What a column reference can name. [Rows]: a column of the layout.
    [Groups]: after aggregation, only a group key or an aggregate call
    (each distinct call once, after the keys, in order of appearance),
    matched structurally with columns normalized in [input]. *)
and scope =
  | Rows of layout
  | Groups of {
      input : layout;
      keys : Ast.expr list;
      calls : Ast.expr list;
      slots : (Ast.expr * int) list;
    }

(** A layout column (from a star) or an expression in [scope]. *)
and item = Col of int | Expr of Ast.expr

and select = {
  from : from option;
  layout : layout;
  where : Ast.expr list;  (** conjuncts, none an aggregate *)
  scope : scope;  (** of the select list, HAVING and ORDER BY *)
  having : Ast.expr option;
  order_by : (Ast.expr * Ast.order_direction) list;
      (** ordinals and output aliases replaced *)
  items : (item * string) list;  (** with output names *)
  distinct : bool;
  limit : int option;
  offset : int option;
}

(** @raise Plan_error on unknown tables, aliases and ordinals, and on
    misplaced or malformed aggregates. Column references inside
    expressions are resolved when compiled in a scope ({!env}). *)
val bind : Extension.t -> Catalog.t -> Ast.select -> select

(** Binds a subquery compiled in [outer] at [shift]: a column that does
    not resolve in its own FROM but does in a [Rows] outer scope becomes
    a hidden parameter, listed with the outer row offset that binds it
    (one level of correlation). *)
val subquery :
  Extension.t ->
  Catalog.t ->
  outer:scope ->
  shift:int ->
  Ast.select ->
  select * (string * int) list

(** [empty_scope] has no columns (INSERT values, SET NOW);
    [table_scope] is an UPDATE or DELETE target, qualified by [qual]. *)
val empty_scope : scope
val table_scope : qual:string -> Schema.t -> scope

(** The row offset (less [shift]) a reference names in a [Rows] scope. *)
val column : scope -> shift:int -> string option -> string -> int option

(** The compile environment of [scope], row offsets shifted down by
    [shift]; [plan_subquery] plans its subqueries. *)
val env :
  Extension.t ->
  scope ->
  shift:int ->
  plan_subquery:(Ast.select -> Expr_eval.subquery_exec) ->
  Expr_eval.env
