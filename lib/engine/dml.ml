(* A flat table and a partitioned parent take the same path; each change
   is journaled in the session as it happens. *)

open Tip_storage
module Ast = Tip_sql.Ast

exception Error of string

let db_error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type cx = {
  catalog : Catalog.t;
  session : Journal.session;
  redo : bool;
  ectx : Expr_eval.ctx;
}

let log_change cx undo = Journal.log_change ~redo:cx.redo cx.session undo

(* Coerces a value into column [i] of [schema] for storage. *)
let coerce { ectx; _ } schema i v =
  match
    Access_path.coerce ectx.Expr_eval.ext ~now:ectx.now
      (Schema.column schema i).Schema.ty v
  with
  | Ok v -> v
  | Error msg -> db_error "%s" msg

(* Evaluates an expression that may reference parameters and subqueries
   but no columns (INSERT values, SET NOW). *)
let eval_standalone catalog ectx expr =
  Planner.compile ~ectx catalog Binder.empty_scope expr ectx [||]

(* Compiles an expression over a row of the statement's target (WHERE,
   SET), bound in [scope]. *)
let compile_on { catalog; ectx; _ } scope = Planner.compile ~ectx catalog scope

(* The matching (rid, row) pairs of one physical table, in rid order,
   all collected before the caller mutates anything. Candidates come
   from the access path a SELECT with the same WHERE would take (a
   B+tree range or an interval probe, else every row); the compiled
   WHERE is rechecked on each. *)
let dml_matches cx scope table where =
  let ectx = cx.ectx in
  let pred = Option.map (compile_on cx scope) where in
  let matches = ref [] in
  List.iter
    (fun rid ->
      Expr_eval.tick ectx;
      match Table.get table rid with
      | None -> ()
      | Some row ->
        let keep =
          match pred with
          | None -> true
          | Some p -> Expr_eval.to_predicate p ectx row
        in
        if keep then matches := (rid, row) :: !matches)
    (match snd (Executor.leaf_rids (Planner.dml_access_path ~ectx scope table where)) with
    | Table.Slots n -> List.init n Fun.id
    | Table.Rids rids -> List.sort_uniq Int.compare (Array.to_list rids));
  List.rev !matches

(* Appends an open history row for a freshly current [row]. *)
let history_open cx hist row =
  match hist with
  | None -> ()
  | Some (h, _, support) ->
    let now = cx.ectx.Expr_eval.now in
    let hrow = Array.append row [| support.Extension.open_timestamp ~now |] in
    log_change cx (Journal.U_insert (h, Table.insert h hrow))

(* Closes the open history row matching [row] (all columns equal). *)
let history_close cx hist row =
  match hist with
  | None -> ()
  | Some (h, tt, support) ->
    let closed = ref false in
    Table.iteri
      (fun hrid hrow ->
        if not !closed then begin
          let same =
            support.Extension.is_open hrow.(tt)
            &&
            let rec all i =
              i >= tt || (Value.equal hrow.(i) row.(i) && all (i + 1))
            in
            all 0
          in
          if same then begin
            let hrow' = Array.copy hrow in
            hrow'.(tt) <-
              support.Extension.close_timestamp ~now:cx.ectx.Expr_eval.now
                hrow.(tt);
            if Table.update h hrid hrow' then
              log_change cx (Journal.U_update (h, hrid, hrow));
            closed := true
          end
        end)
      h

(* Lands an already-coerced row in one physical table. *)
let insert_row cx hist table row =
  let rid = Table.insert table row in
  Catalog.note_partition_write cx.catalog table row;
  log_change cx (Journal.U_insert (table, rid));
  history_open cx hist row

let route (target : Catalog.target) row =
  try target.Catalog.tg_route row
  with Partition.Partition_error msg -> db_error "%s" msg

let target cx name =
  match Catalog.target cx.catalog name with
  | Some target -> target
  | None -> db_error "no such table: %s" name

(* The statement's target and its transaction-time history (the
   [_history] table, its [_tt] column and the blade's timestamp
   routines), resolved once per statement. A partitioned target has
   none: DDL refuses PARTITION BY with WITH HISTORY. *)
let target_with_history cx name =
  let target = target cx name in
  let hist =
    match
      target.Catalog.tg_partitioned,
      Catalog.history_of cx.catalog name,
      Extension.history_support cx.ectx.Expr_eval.ext
    with
    | None, Some (h, tt), Some support -> Some (h, tt, support)
    | _, _, _ -> None
  in
  (target, hist)

(* Where INSERT and COPY FROM put rows of the target's arity: each is
   coerced against the target's schema, then routed. Coercion comes
   first because string literals only gain an extent once they become
   period values. *)
let sink cx ((target : Catalog.target), hist) values =
  let row = Array.mapi (coerce cx target.Catalog.tg_schema) values in
  insert_row cx hist (route target row) row

let reorder_columns schema columns values =
  match columns with
  | None ->
    if List.length values <> Schema.arity schema then
      db_error "INSERT arity mismatch: expected %d values, got %d"
        (Schema.arity schema) (List.length values);
    Array.of_list values
  | Some cols ->
    if List.length cols <> List.length values then
      db_error "INSERT column list and VALUES differ in length";
    let row = Array.make (Schema.arity schema) Value.Null in
    List.iter2
      (fun col v -> row.(Schema.column_index_exn schema col) <- v)
      cols values;
    row

let insert cx ~table ~columns source =
  let ((target, _) as dest) = target_with_history cx table in
  let put values =
    sink cx dest (reorder_columns target.Catalog.tg_schema columns values)
  in
  match source with
  | Ast.Values rows ->
    List.iter
      (fun exprs ->
        put (List.map (eval_standalone cx.catalog cx.ectx) exprs))
      rows;
    List.length rows
  | Ast.Query select ->
    let plan, _ =
      Planner.plan ~ext:cx.ectx.Expr_eval.ext ~ectx:cx.ectx cx.catalog select
    in
    Seq.fold_left
      (fun n produced ->
        put (Array.to_list produced);
        n + 1)
      0
      (Executor.run cx.ectx plan)

let copy_from cx ~table ~file =
  let ((target, _) as dest) = target_with_history cx table in
  try Csv.import ~schema:target.Catalog.tg_schema ~insert:(sink cx dest) file
  with Sys_error msg | Csv.Csv_error msg -> db_error "COPY: %s" msg

(* Every match in every physical table is collected before any row is
   touched: a row moved forward into a not-yet-visited partition must
   not match again there (the Halloween problem). Assignments compile
   once in the target's scope, which partitions share. *)
let update cx ~table:name ~assignments ~where =
  let target, hist = target_with_history cx name in
  let schema = target.Catalog.tg_schema in
  let scope = Binder.table_scope ~qual:name schema in
  let compiled =
    List.map
      (fun (col, e) -> (Schema.column_index_exn schema col, compile_on cx scope e))
      assignments
  in
  let update_row table (rid, old_row) =
    Expr_eval.tick cx.ectx;
    let row = Array.copy old_row in
    List.iter
      (fun (i, c) -> row.(i) <- coerce cx schema i (c cx.ectx old_row))
      compiled;
    let dst = route target row in
    if dst == table then begin
      if Table.update table rid row then begin
        Catalog.note_partition_write cx.catalog table row;
        log_change cx (Journal.U_update (table, rid, old_row));
        history_close cx hist old_row;
        match Table.get table rid with
        | Some stored -> history_open cx hist stored
        | None -> ()
      end
    end
    else if Table.delete table rid then begin
      (* A cross-partition move, journaled as a child-table DELETE plus
         INSERT so recovery and replicas replay it without partition
         awareness. *)
      log_change cx (Journal.U_delete (table, old_row));
      history_close cx hist old_row;
      insert_row cx hist dst row
    end
  in
  let matches =
    List.map
      (fun table -> (table, dml_matches cx scope table where))
      target.Catalog.tg_tables
  in
  List.iter (fun (table, rows) -> List.iter (update_row table) rows) matches;
  List.fold_left (fun n (_, rows) -> n + List.length rows) 0 matches

let delete cx ~table:name ~where =
  let target, hist = target_with_history cx name in
  let scope = Binder.table_scope ~qual:name target.Catalog.tg_schema in
  List.fold_left
    (fun n table ->
      let matches = dml_matches cx scope table where in
      List.iter
        (fun (rid, old_row) ->
          Expr_eval.tick cx.ectx;
          if Table.delete table rid then begin
            log_change cx (Journal.U_delete (table, old_row));
            history_close cx hist old_row
          end)
        matches;
      n + List.length matches)
    0 target.Catalog.tg_tables

(* The row-change family: the number of rows changed. *)
let exec cx = function
  | Ast.Insert { table; columns; source } -> insert cx ~table ~columns source
  | Ast.Update { table; assignments; where } ->
    update cx ~table ~assignments ~where
  | Ast.Delete { table; where } -> delete cx ~table ~where
  | Ast.Copy_from { table; file } -> copy_from cx ~table ~file
  | _ -> invalid_arg "Dml.exec: not a row change"
