(* Textual snapshot persistence for a whole catalog.

   The format is a line-oriented header-and-rows layout; cell values are
   serialized through each type's printer and re-parsed on load, which is
   exact because every value type (including blade types) round-trips
   through its literal syntax — in particular NOW-relative timestamps are
   stored symbolically, as they must be.

   Saving is atomic: the snapshot is rendered in memory, written to
   [<path>.tmp], fsynced and renamed into place, so an interrupted save
   never clobbers the previous snapshot. All snapshot I/O goes through
   [Failpoint] so crash tests can interrupt any step. A snapshot may
   carry a WAL generation number ([walgen] line) that [Recovery] uses to
   reject a stale write-ahead log left behind by a crash between the
   checkpoint rename and the log truncation. *)

exception Format_error of string

let format_error fmt = Format.kasprintf (fun s -> raise (Format_error s)) fmt

(* --- Cell escaping ----------------------------------------------------- *)

(* Tab, newline and backslash become \t, \n and \\. The wire also
   joins a row's cells with \x01, so its variant escapes that byte too,
   as \1; snapshots and WAL payloads never contain the escape. Text
   with nothing to escape, nearly every cell, comes back as is. *)

let needs_escape ~wire = function
  | '\t' | '\n' | '\\' -> true
  | '\001' -> wire
  | _ -> false

(* Every byte to escape is a control byte or the backslash, so most
   bytes are passed over with two comparisons. *)
let rec first_escape ~wire s i stop =
  if i >= stop then -1
  else
    let c = String.unsafe_get s i in
    if (c < ' ' || c = '\\') && needs_escape ~wire c then i
    else first_escape ~wire s (i + 1) stop

(* Appends [s] from [first] to [stop], escaped. *)
let add_escaped ~wire b s first stop =
  for i = first to stop - 1 do
    match String.unsafe_get s i with
    | '\t' -> Buffer.add_string b "\\t"
    | '\n' -> Buffer.add_string b "\\n"
    | '\\' -> Buffer.add_string b "\\\\"
    | '\001' when wire -> Buffer.add_string b "\\1"
    | c -> Buffer.add_char b c
  done

let escape ~wire s =
  let n = String.length s in
  match first_escape ~wire s 0 n with
  | -1 -> s
  | first ->
    let b = Buffer.create (n + 8) in
    Buffer.add_substring b s 0 first;
    add_escaped ~wire b s first n;
    Buffer.contents b

(* Escapes in place what [b] holds from [start] on, such as a cell
   printed straight into a wire row. The bytes are scanned in a copy in
   [scratch]: reading a buffer byte by byte costs a call per byte. *)
let escape_wire_from scratch b start =
  let n = Buffer.length b - start in
  if Bytes.length !scratch < n then scratch := Bytes.create n;
  Buffer.blit b start !scratch 0 n;
  let copy = Bytes.unsafe_to_string !scratch in
  match first_escape ~wire:true copy 0 n with
  | -1 -> ()
  | first ->
    Buffer.truncate b (start + first);
    add_escaped ~wire:true b copy first n

let rec backslash_free s i stop =
  i >= stop || (String.unsafe_get s i <> '\\' && backslash_free s (i + 1) stop)

(* The [len] bytes of [s] from [pos], unescaped: one copy, or [s]
   itself when it is the whole range and has nothing to unescape. A
   backslash before any other byte is dropped and the byte kept; a
   trailing backslash stays. *)
let unescape_sub ~wire s pos len =
  let stop = pos + len in
  if backslash_free s pos stop then
    if pos = 0 && len = String.length s then s else String.sub s pos len
  else begin
    let buf = Buffer.create len in
    let i = ref pos in
    while !i < stop do
      let c = String.unsafe_get s !i in
      if c = '\\' && !i + 1 < stop then begin
        Buffer.add_char buf
          (match String.unsafe_get s (!i + 1) with
          | 't' -> '\t'
          | 'n' -> '\n'
          | '1' when wire -> '\001'
          | c -> c);
        i := !i + 2
      end
      else begin
        Buffer.add_char buf c;
        incr i
      end
    done;
    Buffer.contents buf
  end

let unescape ~wire s = unescape_sub ~wire s 0 (String.length s)

let escape_cell s = escape ~wire:false s
let unescape_cell s = unescape ~wire:false s
let escape_wire s = escape ~wire:true s
let unescape_wire s = unescape ~wire:true s
let unescape_wire_sub s pos len = unescape_sub ~wire:true s pos len

let null_marker = "\\N"

let serialize_value v =
  if Value.is_null v then null_marker
  else begin
    match v with
    | Value.Bool b -> if b then "t" else "f"
    | Value.Null | Value.Int _ | Value.Float _ | Value.Str _ | Value.Date _
    | Value.Ext _ -> escape_cell (Value.to_display_string v)
  end

(* Corrupt cells must surface as [Format_error], never a bare [Failure],
   so recovery can classify them. *)
let int_cell text =
  match int_of_string text with
  | n -> n
  | exception Failure _ -> format_error "bad INT cell %S" text

let float_cell text =
  match float_of_string text with
  | f -> f
  | exception Failure _ -> format_error "bad FLOAT cell %S" text

let parse_value ty cell =
  if String.equal cell null_marker then Value.Null
  else begin
    let text = unescape_cell cell in
    match ty with
    | Schema.T_int -> Value.Int (int_cell text)
    | Schema.T_float -> Value.Float (float_cell text)
    | Schema.T_bool -> Value.Bool (String.equal text "t")
    | Schema.T_char _ -> Value.Str text
    | Schema.T_date -> (
      match Tip_core.Chronon.of_string text with
      | Some c -> Value.Date c
      | None -> format_error "bad date cell %S" text)
    | Schema.T_ext name -> (
      match Value.lookup_type name with
      | Some vt -> (
        match vt.Value.parse text with
        | v -> v
        | exception Value.Type_error msg ->
          format_error "bad %s cell %S: %s" name text msg)
      | None -> format_error "type %s not registered at load time" name)
  end

(* --- Saving ------------------------------------------------------------- *)

let type_spec ty =
  match ty with
  | Schema.T_int -> ("INT", "-")
  | Schema.T_float -> ("FLOAT", "-")
  | Schema.T_bool -> ("BOOLEAN", "-")
  | Schema.T_char None -> ("TEXT", "-")
  | Schema.T_char (Some n) -> ("CHAR", string_of_int n)
  | Schema.T_date -> ("DATE", "-")
  | Schema.T_ext name -> ("EXT:" ^ name, "-")

(* One schema column as a snapshot/WAL header line (shared with [Wal]'s
   CREATE TABLE records). *)
let column_line (c : Schema.column) =
  let ty, param = type_spec c.Schema.ty in
  Printf.sprintf "column %s %s %s %d %d" c.Schema.name ty param
    (if c.Schema.not_null then 1 else 0)
    (if c.Schema.primary_key then 1 else 0)

let serialize_row row =
  String.concat "\t" (Array.to_list (Array.map serialize_value row))

let save_table buf table =
  let schema = Table.schema table in
  Printf.bprintf buf "table %s\n" schema.Schema.table_name;
  Array.iter
    (fun c -> Printf.bprintf buf "%s\n" (column_line c))
    schema.Schema.columns;
  List.iter
    (fun idx ->
      let kind =
        match idx.Table.impl with
        | Table.Ordered_impl _ -> "ordered"
        | Table.Interval_impl _ -> "interval"
      in
      let col = (Schema.column schema idx.Table.idx_column).Schema.name in
      Printf.bprintf buf "index %s %s %s %d\n" idx.Table.idx_name col kind
        (if idx.Table.idx_unique then 1 else 0))
    (Table.indexes table);
  Printf.bprintf buf "rows %d\n" (Table.row_count table);
  Table.iteri
    (fun _rid row -> Printf.bprintf buf "%s\n" (serialize_row row))
    table;
  Buffer.add_string buf "end\n"

(* Partition metadata follows the child tables it refers to, so the
   loader can link the spec against already-reloaded children. The
   parent's schema is not repeated: children carry identical columns. *)
let save_partitioned buf pt =
  Printf.bprintf buf "partitioned %s %s\n" pt.Partition.pt_name
    pt.Partition.pt_col_name;
  Array.iter
    (fun p ->
      if p.Partition.p_default then
        Printf.bprintf buf "part %s default\n" p.Partition.p_name
      else
        Printf.bprintf buf "part %s %d %d\n" p.Partition.p_name
          p.Partition.p_from p.Partition.p_to)
    pt.Partition.pt_parts;
  Buffer.add_string buf "end\n"

let snapshot_string ?wal_gen ?epoch ?asof catalog =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "tipdb 1\n";
  Option.iter (fun g -> Printf.bprintf buf "walgen %d\n" g) wal_gen;
  Option.iter (fun e -> Printf.bprintf buf "epoch %d\n" e) epoch;
  Option.iter (fun a -> Printf.bprintf buf "asof %d\n" a) asof;
  List.iter
    (fun name -> save_table buf (Catalog.table_exn catalog name))
    (Catalog.table_names catalog);
  List.iter
    (fun name ->
      match Catalog.find_partitioned catalog name with
      | Some pt -> save_partitioned buf pt
      | None -> ())
    (Catalog.partitioned_names catalog);
  Buffer.contents buf

let save ?wal_gen ?epoch ?asof catalog path =
  Failpoint.write_file_atomic ~sites:"snapshot" path
    (snapshot_string ?wal_gen ?epoch ?asof catalog)

(* --- Loading ------------------------------------------------------------- *)

(* Abstract line source, so the same loader serves both on-disk
   snapshots and snapshot payloads received over the wire. *)
type reader = { next : unit -> string option; mutable line_no : int }

let reader_of_channel ic =
  { next = (fun () -> try Some (input_line ic) with End_of_file -> None);
    line_no = 0 }

let reader_of_string s =
  let pos = ref 0 in
  let next () =
    if !pos >= String.length s then None
    else begin
      let nl =
        match String.index_from_opt s !pos '\n' with
        | Some nl -> nl
        | None -> String.length s
      in
      let line = String.sub s !pos (nl - !pos) in
      pos := nl + 1;
      Some line
    end
  in
  { next; line_no = 0 }

let read_line_opt r =
  match r.next () with
  | Some line ->
    r.line_no <- r.line_no + 1;
    Some line
  | None -> None

let read_line_exn r what =
  match read_line_opt r with
  | Some line -> line
  | None -> format_error "unexpected end of file (expected %s)" what

let parse_type ty param =
  if String.length ty > 4 && String.sub ty 0 4 = "EXT:" then
    Schema.T_ext (String.sub ty 4 (String.length ty - 4))
  else begin
    match ty with
    | "INT" -> Schema.T_int
    | "FLOAT" -> Schema.T_float
    | "BOOLEAN" -> Schema.T_bool
    | "TEXT" -> Schema.T_char None
    | "CHAR" -> Schema.T_char (Some (int_cell param))
    | "DATE" -> Schema.T_date
    | _ -> format_error "unknown stored type %s" ty
  end

let parse_column_line line =
  match String.split_on_char ' ' line with
  | [ "column"; name; ty; param; not_null; pk ] ->
    let ty = parse_type ty param in
    Schema.make_column ~not_null:(not_null = "1") ~primary_key:(pk = "1") name
      ty
  | _ -> format_error "bad column line %S" line

let split_words line = String.split_on_char ' ' line

let parse_row types cells =
  if Array.length cells <> Array.length types then
    format_error "row arity mismatch: expected %d cells, got %d"
      (Array.length types) (Array.length cells);
  Array.mapi (fun i cell -> parse_value types.(i) cell) cells

let load_table r catalog first_line =
  let table_name =
    match split_words first_line with
    | [ "table"; name ] -> name
    | _ -> format_error "expected table header, got %S" first_line
  in
  (* Columns, then optional index lines, then rows. *)
  let columns = ref [] in
  let index_specs = ref [] in
  let with_line f =
    match f () with
    | v -> v
    | exception Format_error msg -> format_error "line %d: %s" r.line_no msg
  in
  let rec header () =
    let line = read_line_exn r "column/index/rows" in
    match split_words line with
    | "column" :: _ ->
      columns := with_line (fun () -> parse_column_line line) :: !columns;
      header ()
    | [ "index"; idx_name; col; kind; unique ] ->
      index_specs := (idx_name, col, kind, unique = "1") :: !index_specs;
      header ()
    | [ "rows"; n ] ->
      with_line (fun () ->
          match int_of_string n with
          | n -> n
          | exception Failure _ -> format_error "bad row count %S" n)
    | _ -> format_error "bad header line at line %d: %S" r.line_no line
  in
  let n_rows = header () in
  let schema = Schema.make ~table_name (List.rev !columns) in
  let table = Catalog.create_table catalog schema in
  let types = Array.map (fun c -> c.Schema.ty) schema.Schema.columns in
  for _ = 1 to n_rows do
    let line = read_line_exn r "row" in
    let cells = Array.of_list (String.split_on_char '\t' line) in
    let row = with_line (fun () -> parse_row types cells) in
    ignore (Table.insert table row)
  done;
  (match read_line_exn r "end" with
  | "end" -> ()
  | line -> format_error "expected end at line %d, got %S" r.line_no line);
  (* Recreate secondary indexes (the pkey index already exists). *)
  List.iter
    (fun (idx_name, col, kind, unique) ->
      if Table.find_index table idx_name = None then begin
        let kind =
          match kind with
          | "ordered" -> Table.Ordered
          | "interval" -> Table.Interval
          | k -> format_error "unknown index kind %s" k
        in
        ignore (Catalog.create_index catalog ~idx_name ~table_name ~column:col
                  ~unique ~kind)
      end)
    (List.rev !index_specs)

(* A "partitioned <parent> <column>" block: part lines, then "end".
   The children were reloaded as ordinary tables above, so the spec
   links straight to them (rebuilding pruning watermarks from rows). *)
let load_partitioned r catalog ~parent ~column =
  let rec parts acc =
    let line = read_line_exn r "part/end" in
    match split_words line with
    | [ "end" ] -> List.rev acc
    | [ "part"; name; "default" ] -> parts ((name, None) :: acc)
    | [ "part"; name; f; t ] ->
      parts ((name, Some (int_cell f, int_cell t)) :: acc)
    | _ -> format_error "bad partition line at line %d: %S" r.line_no line
  in
  let parts = parts [] in
  let first_child =
    match parts with
    | (pname, _) :: _ -> Partition.child_name parent pname
    | [] -> format_error "partitioned table %s declares no partitions" parent
  in
  let child =
    match Catalog.find_table catalog first_child with
    | Some t -> t
    | None -> format_error "missing partition child table %s" first_child
  in
  let schema =
    Schema.make ~table_name:parent
      (Array.to_list (Table.schema child).Schema.columns)
  in
  match Catalog.link_partitioned catalog ~name:parent ~schema ~column ~parts with
  | _ -> ()
  | exception (Partition.Partition_error msg | Catalog.Catalog_error msg) ->
    format_error "partitioned table %s: %s" parent msg

type meta = {
  m_wal_gen : int option; (* the walgen line, when present *)
  m_epoch : int; (* promotion epoch (0 for pre-HA snapshots) *)
  m_asof : int option; (* instant of the newest commit folded in *)
}

let load_from r =
  (match read_line_opt r with
  | Some "tipdb 1" -> ()
  | Some line -> format_error "bad magic %S" line
  | None -> format_error "empty file");
  let catalog = Catalog.create () in
  let wal_gen = ref None in
  let epoch = ref 0 in
  let asof = ref None in
  let rec tables () =
    match read_line_opt r with
    | None -> ()
    | Some "" -> tables ()
    | Some line -> (
      match split_words line with
      | [ "walgen"; g ] ->
        wal_gen := Some (int_cell g);
        tables ()
      | [ "epoch"; e ] ->
        epoch := int_cell e;
        tables ()
      | [ "asof"; a ] ->
        asof := Some (int_cell a);
        tables ()
      | [ "partitioned"; parent; column ] ->
        load_partitioned r catalog ~parent ~column;
        tables ()
      | _ ->
        load_table r catalog line;
        tables ())
  in
  tables ();
  (catalog, { m_wal_gen = !wal_gen; m_epoch = !epoch; m_asof = !asof })

let load_meta path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> load_from (reader_of_channel ic))

let load path = fst (load_meta path)
let load_string s = load_from (reader_of_string s)
