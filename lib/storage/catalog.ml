(* The system catalog: table names to table objects, plus a global index
   namespace (SQL's DROP INDEX takes no table name, so index names must
   be unique database-wide), plus the partitioned-table registry mapping
   a parent name to its {!Partition} descriptor and each child back to
   its parent. *)

exception Catalog_error of string

let catalog_error fmt = Format.kasprintf (fun s -> raise (Catalog_error s)) fmt

type t = {
  tables : (string, Table.t) Hashtbl.t;
  index_owner : (string, string) Hashtbl.t; (* index name -> table name *)
  partitions : (string, Partition.t) Hashtbl.t; (* parent name -> descriptor *)
  part_parent : (string, Partition.t * Partition.part) Hashtbl.t;
      (* child table name -> (parent descriptor, its part) *)
}

let create () =
  { tables = Hashtbl.create 16;
    index_owner = Hashtbl.create 16;
    partitions = Hashtbl.create 4;
    part_parent = Hashtbl.create 8 }

let key name = String.lowercase_ascii name

let find_table t name = Hashtbl.find_opt t.tables (key name)

let table_exn t name =
  match find_table t name with
  | Some table -> table
  | None -> catalog_error "no such table: %s" name

let table_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tables []
  |> List.sort String.compare

let find_partitioned t name = Hashtbl.find_opt t.partitions (key name)

let partitioned_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.partitions []
  |> List.sort String.compare

let note_partition_write t table row =
  match Hashtbl.find_opt t.part_parent (key (Table.name table)) with
  | Some (pt, part) -> Partition.note_row part pt row
  | None -> ()

type target = {
  tg_schema : Schema.t;
  tg_tables : Table.t list;
  tg_route : Value.t array -> Table.t;
  tg_partitioned : Partition.t option;
}

let target t name =
  match find_table t name with
  | Some table ->
    Some
      { tg_schema = Table.schema table;
        tg_tables = [ table ];
        tg_route = (fun _ -> table);
        tg_partitioned = None }
  | None ->
    Option.map
      (fun pt ->
        { tg_schema = pt.Partition.pt_schema;
          tg_tables =
            List.map (fun p -> p.Partition.p_table) (Partition.all_parts pt);
          tg_route = (fun row -> (Partition.route pt row).Partition.p_table);
          tg_partitioned = Some pt })
      (find_partitioned t name)

(* By name and shape, so the link survives snapshots. *)
let history_of t name =
  match find_table t (name ^ "_history") with
  | None -> None
  | Some h ->
    let schema = Table.schema h in
    let n = Schema.arity schema in
    let arity_fits =
      match find_table t name with
      | Some base -> n = Schema.arity (Table.schema base) + 1
      | None -> true
    in
    if n > 0 && arity_fits && (Schema.column schema (n - 1)).Schema.name = "_tt"
    then Some (h, n - 1)
    else None

let create_table t schema =
  let name = key schema.Schema.table_name in
  if Hashtbl.mem t.tables name then catalog_error "table %s already exists" name;
  if Hashtbl.mem t.partitions name then
    catalog_error "table %s already exists (partitioned)" name;
  let table = Table.create schema in
  Hashtbl.replace t.tables name table;
  (* The implicit primary-key index joins the global namespace too. *)
  List.iter
    (fun idx -> Hashtbl.replace t.index_owner (key idx.Table.idx_name) name)
    (Table.indexes table);
  table

(* Registers the descriptor and the child back-links of an already-built
   partitioned table. *)
let register_partitioned t pt =
  Hashtbl.replace t.partitions pt.Partition.pt_name pt;
  Array.iter
    (fun part ->
      Hashtbl.replace t.part_parent
        (key (Table.name part.Partition.p_table))
        (pt, part))
    pt.Partition.pt_parts

let create_partitioned t schema ~column ~parts =
  let name = key schema.Schema.table_name in
  if Hashtbl.mem t.tables name || Hashtbl.mem t.partitions name then
    catalog_error "table %s already exists" name;
  (* Create every child first so a bad declaration (duplicate child
     name, overlapping ranges) leaves nothing behind. *)
  let created = ref [] in
  let cleanup () =
    List.iter
      (fun child -> ignore (Hashtbl.remove t.tables (key child)))
      !created
  in
  match
    let with_tables =
      List.map
        (fun (pname, bounds) ->
          let child = Partition.child_name name pname in
          let child_schema =
            Schema.make ~table_name:child
              (Array.to_list schema.Schema.columns)
          in
          let table = create_table t child_schema in
          created := child :: !created;
          (pname, bounds, table))
        parts
    in
    Partition.make ~name ~schema ~column with_tables
  with
  | pt ->
    register_partitioned t pt;
    pt
  | exception e ->
    cleanup ();
    raise e

(* Rebinds a loaded partition spec to child tables that already exist
   (snapshot load re-creates children as ordinary tables first), and
   rebuilds each child's end watermark from its rows. *)
let link_partitioned t ~name ~schema ~column ~parts =
  let with_tables =
    List.map
      (fun (pname, bounds) ->
        let child = Partition.child_name name pname in
        (pname, bounds, table_exn t child))
      parts
  in
  let pt = Partition.make ~name ~schema ~column with_tables in
  Array.iter (fun part -> Partition.rebuild_watermark pt part) pt.Partition.pt_parts;
  register_partitioned t pt;
  pt

let drop_plain_table t name =
  match find_table t name with
  | None -> false
  | Some table ->
    List.iter
      (fun idx -> Hashtbl.remove t.index_owner (key idx.Table.idx_name))
      (Table.indexes table);
    Hashtbl.remove t.tables (key name);
    true

let drop_table t name =
  match find_partitioned t name with
  | Some pt ->
    Array.iter
      (fun part ->
        let child = Table.name part.Partition.p_table in
        Hashtbl.remove t.part_parent (key child);
        ignore (drop_plain_table t child))
      pt.Partition.pt_parts;
    Hashtbl.remove t.partitions (key name);
    true
  | None ->
    if Hashtbl.mem t.part_parent (key name) then
      catalog_error
        "%s is a partition; drop the partitioned parent instead" name;
    drop_plain_table t name

let create_index t ~idx_name ~table_name ~column ~unique ~kind =
  let idx_key = key idx_name in
  if Hashtbl.mem t.index_owner idx_key then
    catalog_error "index %s already exists" idx_name;
  let table = table_exn t table_name in
  let idx = Table.create_index table ~idx_name:idx_key ~column ~unique ~kind in
  Hashtbl.replace t.index_owner idx_key (key table_name);
  idx

(* Replaces [t]'s contents with [from]'s, in place. Replication
   re-bootstrap needs this: the replica's catalog object is shared with
   the engine, planner and registered virtual tables, so on a fresh
   snapshot the contents must be swapped under the existing handle
   rather than allocating a new catalog. *)
let assign t ~from =
  Hashtbl.reset t.tables;
  Hashtbl.reset t.index_owner;
  Hashtbl.reset t.partitions;
  Hashtbl.reset t.part_parent;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.tables k v) from.tables;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.index_owner k v) from.index_owner;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.partitions k v) from.partitions;
  Hashtbl.iter (fun k v -> Hashtbl.replace t.part_parent k v) from.part_parent

let drop_index t idx_name =
  let idx_key = key idx_name in
  match Hashtbl.find_opt t.index_owner idx_key with
  | None -> false
  | Some owner ->
    let table = table_exn t owner in
    ignore (Table.drop_index table idx_key);
    Hashtbl.remove t.index_owner idx_key;
    true
