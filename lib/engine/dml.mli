(** Row changes (INSERT, UPDATE, DELETE, COPY FROM) against a
    {!Tip_storage.Catalog.target}, with WITH HISTORY maintenance. *)

open Tip_storage

(** The engine's statement error; {!Database.Error}. *)
exception Error of string

val db_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** What a statement runs against; [redo] when a log is attached. *)
type cx = {
  catalog : Catalog.t;
  session : Journal.session;
  redo : bool;
  ectx : Expr_eval.ctx;
}

(** @raise Error when no table or partitioned parent has the name. *)
val target : cx -> string -> Catalog.target

(** Evaluates an expression that references no columns. *)
val eval_standalone : Catalog.t -> Expr_eval.ctx -> Tip_sql.Ast.expr -> Value.t

(** Runs a row change; returns the number of rows changed. *)
val exec : cx -> Tip_sql.Ast.statement -> int
