(* Prepared statements: parse once, bind host variables, execute many
   times. Mirrors the paper's use of input parameters (the [:w] of the
   Tylenol query). *)

open Tip_storage
module Db = Tip_engine.Database

exception Statement_error of string

type t = {
  conn : Connection.t;
  ast : Tip_sql.Ast.statement;
  fingerprint : string; (* keyed once, from the prepared text's tokens *)
  mutable bindings : (string * Value.t) list;
}

let prepare conn sql =
  match Tip_sql.Parser.parse_with_tokens sql with
  | ast, tokens ->
    { conn; ast; fingerprint = Tip_sql.Lexer.fingerprint_tokens tokens;
      bindings = [] }
  | exception Tip_sql.Parser.Error msg -> raise (Statement_error msg)

(* Binds [:name] for subsequent executions; later binds override. *)
let bind t name value =
  let name = String.lowercase_ascii name in
  t.bindings <- (name, value) :: List.remove_assoc name t.bindings

let bind_int t name n = bind t name (Value.Int n)
let bind_float t name f = bind t name (Value.Float f)
let bind_string t name s = bind t name (Value.Str s)
let bind_bool t name b = bind t name (Value.Bool b)
let bind_chronon t name c = bind t name (Tip_blade.Values.chronon c)
let bind_span t name s = bind t name (Tip_blade.Values.span s)
let bind_instant t name i = bind t name (Tip_blade.Values.instant i)
let bind_period t name p = bind t name (Tip_blade.Values.period p)
let bind_element t name e = bind t name (Tip_blade.Values.element e)

let clear_bindings t = t.bindings <- []

let execute t =
  Db.exec_statement ~fingerprint:t.fingerprint
    ~session:(Connection.session t.conn) (Connection.database t.conn)
    ~params:t.bindings t.ast

let query t = Result_set.of_result (execute t)

let execute_update t =
  match execute t with
  | Db.Affected n -> n
  | Db.Rows _ | Db.Message _ ->
    raise (Statement_error "statement did not return an update count")
