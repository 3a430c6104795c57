(** Expression compilation and evaluation.

    Expressions compile once per statement into closures over a row and
    an evaluation context. SQL three-valued logic lives here: NULL
    propagates through operators, AND/OR follow Kleene logic, and WHERE
    treats unknown as false (via {!to_predicate}).

    Built-in semantics cover the base types; any combination the engine
    does not know falls through to the extension registry keyed by the
    operator symbol — that is how [chronon + span] becomes meaningful
    once the TIP blade is installed. Row-free subexpressions (constants
    and non-correlated subqueries) are evaluated once per statement and
    cached. *)

open Tip_storage
module Ast = Tip_sql.Ast

exception Eval_error of string

(** Per-statement evaluation context: the bound transaction time, host
    parameters, the extension registry, and the statement's governance
    token. *)
type ctx = {
  now : Tip_core.Chronon.t;
  params : (string * Value.t) list;  (** lowercase names *)
  ext : Extension.t;
  token : Tip_core.Deadline.t;
      (** cancellation/budget token; [Deadline.never] when ungoverned *)
  mutable poll_tick : int;
      (** row counter behind {!tick}'s every-256-rows polling *)
}

val poll : ctx -> unit
(** Check the token now (also a failpoint site, [exec.poll], so tests
    can cancel at an exact chunk boundary). Raises
    [Tip_core.Deadline.Cancelled]. *)

val tick : ctx -> unit
(** Per-row hook: polls every 256th call. *)

(** A compiled expression: evaluate against a context and a row. *)
type compiled = ctx -> Value.t array -> Value.t

(** A planned subquery: [sq_run ctx outer_row] produces its rows.
    Non-correlated subqueries ignore the outer row (and are cached once
    per statement); correlated ones read outer columns through hidden
    parameters bound per outer row. *)
type subquery_exec = {
  sq_run : ctx -> Value.t array -> Value.t array list;
  sq_correlated : bool;
}

(** Compilation environment. *)
type env = {
  resolve_column : string option -> string -> int;
      (** qualifier, name → row offset; raises on unknown/ambiguous *)
  slot_of : Ast.expr -> int option;
      (** pre-computed slots (group keys / aggregate results), checked at
          every node so post-aggregation expressions can reference them *)
  ext : Extension.t;
  plan_subquery : Ast.select -> subquery_exec;
      (** provided by the planner; must be stable (same select, same
          answer), since both compilation and the row-free analysis call
          it *)
}

(** An environment with no aggregate slots; [plan_subquery] defaults to
    an error. *)
val base_env :
  ?plan_subquery:(Ast.select -> subquery_exec) ->
  ext:Extension.t ->
  resolve_column:(string option -> string -> int) ->
  unit ->
  env

(** Compiles an expression; name resolution happens now, evaluation does
    none. *)
val compile : env -> Ast.expr -> compiled

(** WHERE semantics: NULL (unknown) is not true.
    @raise Eval_error when the value is not boolean. *)
val to_predicate : compiled -> ctx -> Value.t array -> bool

(** {1 Batch (chunk-at-a-time) evaluation} *)

(** A fused predicate kernel over a chunk: [bp ctx rows ~sel ~n] reads
    row indices from the first [n] entries of the selection vector [sel],
    compacts [sel] in place to the rows that pass (WHERE semantics: NULL
    is not true), and returns the surviving count. *)
type batch_pred = ctx -> Value.t array array -> sel:int array -> n:int -> int

(** Generic fallback: row-at-a-time evaluation through {!to_predicate}. *)
val batch_of_predicate : compiled -> batch_pred

(** Compiles a predicate to a fused batch kernel. Conjunctions become
    sequential kernels over the narrowing selection vector, integer and
    string comparisons and element OVERLAPS run as tight loops, and
    everything else falls back to {!batch_of_predicate}. Semantics are
    identical to [to_predicate (compile env e)] on every row. *)
val compile_batch : env -> Ast.expr -> batch_pred

(** {1 Pieces exposed for reuse and tests} *)

(** Binary operator semantics: built-ins first, then the extension
    registry. NULL operands yield NULL.
    @raise Eval_error when undefined for the operand types. *)
val apply_binop :
  Extension.t -> now:Tip_core.Chronon.t -> Ast.binop -> Value.t -> Value.t ->
  Value.t

(** SQL LIKE: ['%'] any sequence, ['_'] any one character (one byte).
    [like_compile pattern] splits the pattern once; the returned matcher
    allocates nothing per call. *)
val like_compile : string -> string -> bool

(** [like_match ~pattern text] is [like_compile pattern text]. *)
val like_match : pattern:string -> string -> bool

(** Cast semantics for [expr::Type]: engine-native conversions for base
    types, the extension registry for everything else, string literals
    parse as the target type.
    @raise Eval_error when no cast applies. *)
val cast_value :
  Extension.t -> now:Tip_core.Chronon.t -> Value.t -> to_type:string -> Value.t
