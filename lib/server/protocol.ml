(* The wire protocol between TIP clients and the server — our stand-in
   for the ODBC/JDBC connection of the paper's Figure 1.

   Line-oriented text over a stream socket. Every line is terminated by
   '\n'; embedded tabs/newlines/backslashes in payloads are escaped with
   the snapshot escaping (\t, \n, \\), and the row-cell separator
   \x01 as \1.

   Client -> server, one request per exchange:
     Q <sql>                      execute a statement
     B <name>\t<type>\t<text>     bind a parameter for the next Q
                                  (type = int|float|bool|string|date or a
                                  registered extension type; text in
                                  literal syntax)
     X                            close the session

   Server -> client, one response per Q:
     R <ncols> <nrows>            result rows follow:
       <name1>\t<name2>...        one header line
       <cell>\x01<cell>...        nrows data lines; a cell is
                                  <type>\t<text> (NULL as null\t\N)
     A <n>                        statement affected n rows
     M <text>                     informational message
     E <text>                     error (session stays usable)

   Cells travel in display syntax and are re-parsed by type name on the
   client, exactly like the snapshot format — NOW stays symbolic on the
   wire. *)

open Tip_storage

let escape = Persist.escape_wire
let unescape = Persist.unescape_wire
let null_marker = "\\N"
let null_cell = "null\t" ^ null_marker

(* Values travel with their type name so the client can rebuild typed
   values (the JDBC custom type mapping, one line at a time). *)
let encode_typed v =
  if Value.is_null v then null_cell
  else Value.type_name v ^ "\t" ^ escape (Value.to_display_string v)

(* How to rebuild a non-NULL cell of a wire type from its unescaped
   text. An unregistered type fails only when one of its values
   arrives. *)
let decoder = function
  | "int" -> fun text -> Value.Int (int_of_string text)
  | "float" -> fun text -> Value.Float (float_of_string text)
  | "boolean" -> fun text -> Value.Bool (String.equal text "t")
  | "char" | "string" -> fun text -> Value.Str text
  | "date" -> (
    fun text ->
      match Tip_core.Chronon.of_string text with
      | Some c -> Value.Date c
      | None -> failwith ("bad date on the wire: " ^ text))
  | ext -> (
    match Value.lookup_type ext with
    | Some vt -> vt.Value.parse
    | None -> fun _ -> failwith ("unregistered wire type: " ^ ext))

let decode_typed ty text =
  if String.equal text null_marker then Value.Null
  else decoder ty (unescape text)

(* --- Requests --------------------------------------------------------------- *)

type request =
  | Execute of string
  | Bind of string * Value.t
  | Metrics
  | Quit
  | Wal_subscribe of { gen : int; offset : int; epoch : int }
  | Snapshot_request
  | Ack of { offset : int; commits : int }
  | Lag_probe
  | Role_probe

let encode_request = function
  | Execute sql -> "Q " ^ escape sql
  | Bind (name, v) -> Printf.sprintf "B %s\t%s" (escape name) (encode_typed v)
  | Metrics -> "M"
  | Quit -> "X"
  | Wal_subscribe { gen; offset; epoch } ->
    Printf.sprintf "S %d %d %d" gen offset epoch
  | Snapshot_request -> "P"
  | Ack { offset; commits } -> Printf.sprintf "K %d %d" offset commits
  | Lag_probe -> "L"
  | Role_probe -> "W"

let decode_request line =
  if String.length line >= 2 && String.sub line 0 2 = "Q " then
    Some (Execute (unescape (String.sub line 2 (String.length line - 2))))
  else if String.length line >= 2 && String.sub line 0 2 = "B " then begin
    match
      String.split_on_char '\t' (String.sub line 2 (String.length line - 2))
    with
    | [ name; ty; text ] -> Some (Bind (unescape name, decode_typed ty text))
    | _ -> None
  end
  else if String.equal line "M" then Some Metrics
  else if String.equal line "X" then Some Quit
  else if String.equal line "P" then Some Snapshot_request
  else if String.equal line "L" then Some Lag_probe
  else if String.equal line "W" then Some Role_probe
  else if String.length line >= 2 && String.sub line 0 2 = "S " then begin
    (* pre-HA subscribers send two fields; their epoch reads as 0,
       matching pre-HA generation frames *)
    match
      String.split_on_char ' ' (String.sub line 2 (String.length line - 2))
    with
    | [ gen; offset ] -> (
      match (int_of_string_opt gen, int_of_string_opt offset) with
      | Some gen, Some offset -> Some (Wal_subscribe { gen; offset; epoch = 0 })
      | _ -> None)
    | [ gen; offset; epoch ] -> (
      match
        (int_of_string_opt gen, int_of_string_opt offset, int_of_string_opt epoch)
      with
      | Some gen, Some offset, Some epoch ->
        Some (Wal_subscribe { gen; offset; epoch })
      | _ -> None)
    | _ -> None
  end
  else if String.length line >= 2 && String.sub line 0 2 = "K " then begin
    match
      String.split_on_char ' ' (String.sub line 2 (String.length line - 2))
    with
    | [ offset; commits ] -> (
      match (int_of_string_opt offset, int_of_string_opt commits) with
      | Some offset, Some commits -> Some (Ack { offset; commits })
      | _ -> None)
    | _ -> None
  end
  else None

(* --- Responses --------------------------------------------------------------- *)

type response =
  | Rows of { names : string list; rows : Value.t array list }
  | Affected of int
  | Message of string
  | Error of string

(* The server's per-statement hot path: each row is printed, and its
   cells escaped in place, into one small buffer reused across the
   rows, then leaves in one channel write. The bytes are those
   [encode_typed] and the line layout above describe. *)
let add_typed b scratch v =
  if Value.is_null v then Buffer.add_string b null_cell
  else begin
    Buffer.add_string b (Value.type_name v);
    Buffer.add_char b '\t';
    let start = Buffer.length b in
    Value.to_buffer b v;
    Persist.escape_wire_from scratch b start
  end

let write_line oc tag text =
  output_char oc tag;
  output_char oc ' ';
  output_string oc text;
  output_char oc '\n'

let write_response oc = function
  | Rows { names; rows } ->
    output_string oc "R ";
    output_string oc (string_of_int (List.length names));
    output_char oc ' ';
    output_string oc (string_of_int (List.length rows));
    output_char oc '\n';
    List.iteri
      (fun i name ->
        if i > 0 then output_char oc '\t';
        output_string oc (escape name))
      names;
    output_char oc '\n';
    let b = Buffer.create 256 and scratch = ref (Bytes.create 128) in
    List.iter
      (fun row ->
        Buffer.clear b;
        for i = 0 to Array.length row - 1 do
          if i > 0 then Buffer.add_char b '\x01';
          add_typed b scratch row.(i)
        done;
        Buffer.add_char b '\n';
        Buffer.output_buffer oc b)
      rows
  | Affected n -> write_line oc 'A' (string_of_int n)
  | Message m -> write_line oc 'M' (escape m)
  | Error e -> write_line oc 'E' (escape e)

(* The first [c] in [s] from [i] on, or [stop]. *)
let rec index_before s c i stop =
  if i >= stop || String.unsafe_get s i = c then i
  else index_before s c (i + 1) stop

(* [s] from [pos] to [stop] spells [name]. *)
let spelled s pos stop name =
  let n = String.length name and i = ref 0 in
  while stop - pos = n && !i < n && s.[pos + !i] = name.[!i] do incr i done;
  stop - pos = n && !i = n

(* Each column's type name and decoder, kept from row to row: a cell's
   name is compared in place and looked up only when it changes. *)
type column = { mutable ty : string; mutable decode : string -> Value.t }

(* One row line in one pass: per cell, one copy of its unescaped text. *)
let read_row ic columns =
  let line = input_line ic in
  let ncols = Array.length columns and stop = String.length line in
  let row = Array.make ncols Value.Null in
  let rec cell col pos =
    if col >= ncols then failwith "protocol: row arity";
    let cell_end = index_before line '\x01' pos stop in
    let tab = index_before line '\t' pos cell_end in
    if tab = cell_end then failwith "protocol: bad cell";
    if not (spelled line (tab + 1) cell_end null_marker) then begin
      let c = columns.(col) in
      if not (spelled line pos tab c.ty) then begin
        c.ty <- String.sub line pos (tab - pos);
        c.decode <- decoder c.ty
      end;
      row.(col) <-
        c.decode (Persist.unescape_wire_sub line (tab + 1) (cell_end - tab - 1))
    end;
    if cell_end < stop then cell (col + 1) (cell_end + 1)
    else if col + 1 <> ncols then failwith "protocol: row arity"
  in
  cell 0 0;
  row

let read_response ic =
  let line = input_line ic in
  if String.length line >= 2 && String.sub line 0 2 = "R " then begin
    match
      String.split_on_char ' ' (String.sub line 2 (String.length line - 2))
    with
    | [ ncols; nrows ] ->
      let ncols = int_of_string ncols and nrows = int_of_string nrows in
      let names =
        List.map unescape (String.split_on_char '\t' (input_line ic))
      in
      if List.length names <> ncols then failwith "protocol: header arity";
      let columns =
        Array.init ncols (fun _ -> { ty = ""; decode = decoder "" })
      in
      let rows = List.init nrows (fun _ -> read_row ic columns) in
      Rows { names; rows }
    | _ -> failwith "protocol: bad R header"
  end
  else if String.length line >= 2 && String.sub line 0 2 = "A " then
    Affected (int_of_string (String.sub line 2 (String.length line - 2)))
  else if String.length line >= 2 && String.sub line 0 2 = "M " then
    Message (unescape (String.sub line 2 (String.length line - 2)))
  else if String.length line >= 2 && String.sub line 0 2 = "E " then
    Error (unescape (String.sub line 2 (String.length line - 2)))
  else failwith ("protocol: unexpected line " ^ line)

(* --- WAL stream framing ------------------------------------------------------ *)

(* Replication subscriptions carry raw WAL bytes, which are arbitrary
   binary as far as the wire is concerned (CRC hex, payload text, torn
   prefixes under failpoints), so they travel length-prefixed instead
   of escaped:

     D <len>\n<len raw bytes>\n

   interleaved with ordinary [M]/[E] lines for keepalives and typed
   stream errors. *)

let write_chunk oc payload =
  Printf.fprintf oc "D %d\n" (String.length payload);
  output_string oc payload;
  output_char oc '\n'

let read_stream_item ic =
  let line = input_line ic in
  if String.length line >= 2 && String.sub line 0 2 = "D " then begin
    let len =
      match int_of_string_opt (String.sub line 2 (String.length line - 2)) with
      | Some n when n >= 0 -> n
      | _ -> failwith ("protocol: bad chunk header " ^ line)
    in
    let payload = Bytes.create len in
    really_input ic payload 0 len;
    (match input_char ic with
    | '\n' -> ()
    | _ -> failwith "protocol: missing chunk terminator");
    `Chunk (Bytes.to_string payload)
  end
  else if String.length line >= 2 && String.sub line 0 2 = "M " then
    `Info (unescape (String.sub line 2 (String.length line - 2)))
  else if String.length line >= 2 && String.sub line 0 2 = "E " then
    `Err (unescape (String.sub line 2 (String.length line - 2)))
  else failwith ("protocol: unexpected stream line " ^ line)
