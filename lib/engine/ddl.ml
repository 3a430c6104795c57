(* Each catalog change is journaled as a DDL record, which ROLLBACK
   keeps: DDL auto-commits. *)

open Tip_storage
module Ast = Tip_sql.Ast

let db_error = Dml.db_error
let log (cx : Dml.cx) = Journal.log_ddl ~redo:cx.redo cx.session

(* A new table links to an existing [<table>_history] by name and shape
   ({!Catalog.history_of}), and WITH HISTORY needs that name for its
   own shadow: either way the create is refused before anything
   exists, rather than adopting another table's history. *)
let check_history_name (cx : Dml.cx) ~with_history table =
  let history = table ^ "_history" in
  if
    Catalog.target cx.catalog table = None
    &&
    if with_history then Catalog.find_table cx.catalog history <> None
    else Catalog.history_of cx.catalog table <> None
  then
    db_error "table %s already exists; drop it before creating %s"
      (String.lowercase_ascii history) table

let parse_instant pname s =
  match Tip_core.Chronon.of_string s with
  | Some c -> Tip_core.Chronon.to_unix_seconds c
  | None -> db_error "partition %s: cannot parse instant '%s'" pname s

let create_partitioned (cx : Dml.cx) ~table ~cols (pc : Ast.partition_clause) =
  let parts =
    List.map
      (fun (d : Ast.partition_def) ->
        let at = parse_instant d.part_name in
        ( d.part_name,
          Option.map (fun (f, upto) -> (at f, at upto)) d.part_range ))
      pc.part_defs
  in
  (try
     ignore
       (Catalog.create_partitioned cx.catalog
          (Schema.make ~table_name:table cols)
          ~column:pc.part_column ~parts)
   with Partition.Partition_error msg -> db_error "%s" msg);
  log cx
    (Wal.Create_partitioned
       { table; columns = cols; column = pc.part_column; parts });
  Printf.sprintf "table %s created (%d partitions)"
    (String.lowercase_ascii table)
    (List.length parts)

(* History support is resolved before anything is created, so a failure
   leaves no half-created table behind. History rows repeat values over
   time, so the shadow drops uniqueness but keeps NOT NULL. *)
let create_flat (cx : Dml.cx) ~table ~cols ~with_history =
  let history_cols =
    if not with_history then None
    else
      match Extension.history_support cx.ectx.ext with
      | None ->
        db_error "WITH HISTORY requires a temporal blade with history support"
      | Some support ->
        Some
          (List.map
             (fun (c : Schema.column) ->
               Schema.make_column ~not_null:c.not_null c.name c.ty)
             cols
          @ [ Schema.make_column "_tt"
                (Schema.type_of_name support.Extension.timestamp_type) ])
  in
  let create table columns =
    ignore
      (Catalog.create_table cx.catalog (Schema.make ~table_name:table columns));
    log cx (Wal.Create_table { table; columns })
  in
  create table cols;
  Option.iter (create (table ^ "_history")) history_cols;
  Printf.sprintf "table %s created%s"
    (String.lowercase_ascii table)
    (if with_history then " (with transaction-time history)" else "")

(* CREATE TABLE AS: column types are inferred from the first non-NULL
   value in each output column; all-NULL columns default to TEXT. The
   backfill is DDL-class in the log: like the table itself it is not
   undone by ROLLBACK. *)
let create_as (cx : Dml.cx) ~table query =
  check_history_name cx ~with_history:false table;
  let plan, names =
    Planner.plan ~ext:cx.ectx.ext ~ectx:cx.ectx cx.catalog query
  in
  let rows = Executor.collect cx.ectx plan in
  let type_of_column i =
    let rec probe = function
      | [] -> Schema.T_char None
      | row :: rest -> (
        match row.(i) with
        | Value.Null -> probe rest
        | Value.Int _ -> Schema.T_int
        | Value.Float _ -> Schema.T_float
        | Value.Bool _ -> Schema.T_bool
        | Value.Str _ -> Schema.T_char None
        | Value.Date _ -> Schema.T_date
        | Value.Ext (name, _) -> Schema.T_ext name)
    in
    probe rows
  in
  let cols =
    Array.to_list
      (Array.mapi
         (fun i name -> Schema.make_column name (type_of_column i))
         names)
  in
  let created =
    Catalog.create_table cx.catalog (Schema.make ~table_name:table cols)
  in
  log cx (Wal.Create_table { table; columns = cols });
  List.iter
    (fun row ->
      let rid = Table.insert created row in
      log cx
        (Wal.Insert
           { table = Table.name created;
             cells = Journal.row_cells (Table.get_exn created rid) }))
    rows;
  Printf.sprintf "table %s created (%d rows)"
    (String.lowercase_ascii table)
    (List.length rows)

(* A partitioned parent gets one physical index per child,
   [<index>__<partition>]; DROP INDEX on the parent-level name removes
   the whole family. *)
let create_index (cx : Dml.cx) ~index ~table ~column ~unique ~using =
  let kind =
    match Option.map String.lowercase_ascii using with
    | None | Some "btree" | Some "ordered" -> Table.Ordered
    | Some "interval" -> Table.Interval
    | Some other -> db_error "unknown index kind %s" other
  in
  let create idx_name table_name =
    ignore
      (Catalog.create_index cx.catalog ~idx_name ~table_name ~column ~unique
         ~kind);
    log cx
      (Wal.Create_index
         { idx_name;
           table = table_name;
           column;
           interval = kind = Table.Interval;
           unique })
  in
  match Catalog.target cx.catalog table with
  | Some { tg_partitioned = Some pt; _ } ->
    let parts = Partition.all_parts pt in
    List.iter
      (fun (p : Partition.part) ->
        create (index ^ "__" ^ p.p_name) (Table.name p.p_table))
      parts;
    Printf.sprintf "index %s created (%d partitions)" index (List.length parts)
  | Some _ | None ->
    create index table;
    Printf.sprintf "index %s created" index

let drop_index (cx : Dml.cx) index =
  let drop idx_name =
    Catalog.drop_index cx.catalog idx_name
    && begin
         log cx (Wal.Drop_index idx_name);
         true
       end
  in
  if drop index then Printf.sprintf "index %s dropped" index
  else
    (* a parent-level name for a per-partition index family *)
    let dropped =
      List.concat_map
        (fun parent ->
          match Catalog.target cx.catalog parent with
          | Some { tg_partitioned = Some pt; _ } ->
            List.filter
              (fun (p : Partition.part) -> drop (index ^ "__" ^ p.p_name))
              (Partition.all_parts pt)
          | Some _ | None -> [])
        (Catalog.partitioned_names cx.catalog)
    in
    if dropped = [] then db_error "no such index: %s" index
    else
      Printf.sprintf "index %s dropped (%d partitions)" index
        (List.length dropped)

(* The DDL family: the acknowledgement message. *)
let exec (cx : Dml.cx) = function
  | Ast.Create_table { table; if_not_exists; columns; with_history; partition_by }
    ->
    if if_not_exists && Catalog.target cx.catalog table <> None then
      Printf.sprintf "table %s already exists, skipped" table
    else begin
      check_history_name cx ~with_history table;
      let cols =
        List.map
          (fun (c : Ast.column_def) ->
            let ty = Schema.type_of_name ?param:c.col_type_param c.col_type in
            Schema.make_column ~not_null:c.col_not_null
              ~primary_key:c.col_primary_key c.col_name ty)
          columns
      in
      match partition_by with
      | Some _ when with_history ->
        db_error
          "PARTITION BY cannot be combined with WITH HISTORY (partition the \
           current table and shadow it manually if both are needed)"
      | Some pc -> create_partitioned cx ~table ~cols pc
      | None -> create_flat cx ~table ~cols ~with_history
    end
  | Ast.Create_table_as { table; query } -> create_as cx ~table query
  | Ast.Drop_table { table; if_exists } ->
    if Catalog.drop_table cx.catalog table then begin
      log cx (Wal.Drop_table table);
      Printf.sprintf "table %s dropped" table
    end
    else if if_exists then "no such table, skipped"
    else db_error "no such table: %s" table
  | Ast.Create_index { index; table; column; unique; using } ->
    create_index cx ~index ~table ~column ~unique ~using
  | Ast.Drop_index { index } -> drop_index cx index
  | _ -> invalid_arg "Ddl.exec: not DDL"
