(** Access-path choice for one stored table.

    One pass ({!sargs}) turns the conjuncts pushed to a table into
    sargs; the chooser reads only those to pick the leaf scan
    ({!choose}), a partitioned parent's window and filter elision
    ({!partition_scan}), and the index scan that satisfies ORDER BY
    ({!ordered_scan}). Probe keys and stored values go through the one
    {!coerce}. *)

open Tip_storage
module Ast = Tip_sql.Ast

(** [v] as a value of column type [ty]: a string is parsed as a literal
    of the column's type (the blade's automatic casts from SQL strings),
    other mismatches go through registered implicit casts. [Error]
    carries the storage error message. With [~exact] (a probe key) a
    coercion that could change a comparison's answer is refused or
    skipped: an over-width CHAR(n) string stays whole rather than
    truncated, and a DATE takes only dates and date strings. *)
val coerce :
  ?exact:bool ->
  Extension.t ->
  now:Tip_core.Chronon.t ->
  Schema.col_type ->
  Value.t ->
  (Value.t, string) result

(** [e]'s value at plan time, when it references no column and no
    subquery and raises no {!Expr_eval.Eval_error}. *)
val const_eval : Expr_eval.ctx -> Ast.expr -> Value.t option

(** A pushed conjunct over column [col] of the table, with its source
    [src] kept for labels. *)
type sarg =
  | Range of { src : Ast.expr; col : int; lo : Btree.bound; hi : Btree.bound }
      (** a comparison with a constant ([= < <= > >=], flipped to put the
          column first) or a [BETWEEN] *)
  | Probe of {
      src : Ast.expr;
      col : int;
      lo : int;
      hi : int;
      overlaps : bool;  (** the call is [overlaps] *)
      solid : bool;  (** the constant is one bounded period *)
    }  (** an interval-sargable call with a constant of extent [lo, hi] *)

(** The one pass over [exprs], in order, each constant evaluated once.
    [col_of q name] resolves a column reference to this table's column,
    if it names one. A constant the column cannot take exactly
    ({!coerce} [~exact:true] fails) makes no sarg. *)
val sargs :
  Expr_eval.ctx ->
  col_of:(string option -> string -> int option) ->
  Schema.t ->
  Ast.expr list ->
  sarg list

(** The leaf scan of a table: the first probe with an interval index
    (a [Seq_scan] instead when ANALYZE estimates it matches over half
    the table), else the first range with a B+tree index, else a
    [Seq_scan]. The second component estimates the rows that survive
    the recheck filter, when the table has ANALYZE statistics. *)
val choose : Table.t -> sarg list -> Plan.t * int option

(** The full B+tree scan that yields the table in ascending order of a
    NOT NULL indexed column, replacing an ORDER BY on it. *)
val ordered_scan : Table.t -> int -> Plan.t option

(** A partitioned parent's [Partition_scan]: the first probe on the
    partition column prunes the children, and each kept child reads its
    {!choose} leaf under [recheck], except a child the probe window
    proves the filter for (an [overlaps] against one solid window that
    is the only one of the [conjuncts] pushed to the parent). *)
val partition_scan :
  Partition.t -> sarg list -> conjuncts:int -> recheck:(Plan.t -> Plan.t) -> Plan.t
