(* The append-only write-ahead log.

   Temporal tables are append-heavy histories, so the durable path is
   log-structured: every committed DML/DDL statement appends its
   row-level redo records followed by a commit marker, and a checkpoint
   (snapshot + truncate) bounds replay time.

   Framing: each record travels as

     tipwal <payload length> <crc32 of payload>\n
     <payload bytes>\n

   so a reader can always tell a torn tail (short header, short payload,
   or CRC mismatch) from a valid record and stop cleanly at the last
   intact frame. Payloads are line-oriented text; cells reuse the
   snapshot's escaped round-trip format, so NOW-relative timestamps stay
   symbolic in the log exactly as they do in snapshots.

   A generation frame leads every log. Snapshots carry the generation
   they pair with ([Persist] [walgen] line); recovery replays the log
   only when the generations agree, which makes the checkpoint protocol
   crash-safe: a crash between the snapshot rename and the log
   truncation leaves a new-generation snapshot next to an old-generation
   log, and the stale log is skipped instead of being applied twice.

   Statement atomicity: records are buffered by the engine and appended
   together with a trailing [Commit] record in a single write; replay
   applies a batch only once its commit marker has been read, so a torn
   batch is discarded as a whole and recovery always lands on a
   statement boundary. *)

module Metrics = Tip_obs.Metrics
module Span = Tip_obs.Span

let m_appends =
  Metrics.counter "wal_appends_total" ~help:"Redo records appended to the log"

let m_commits =
  Metrics.counter "wal_commits_total" ~help:"Committed statement batches"

let m_fsyncs = Metrics.counter "wal_fsyncs_total" ~help:"fsync calls on the log"
let m_bytes = Metrics.counter "wal_bytes_total" ~help:"Bytes written to the log"

let m_truncates =
  Metrics.counter "wal_truncates_total" ~help:"Log truncations (checkpoints)"

(* --- CRC32 (IEEE 802.3, table-driven) ---------------------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let i =
        Int32.to_int
          (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(i) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

(* --- Records ----------------------------------------------------------- *)

type record =
  | Generation of { gen : int; epoch : int }
  | Insert of { table : string; cells : string array }
  | Delete of { table : string; cells : string array }
  | Update of {
      table : string;
      old_cells : string array;
      new_cells : string array;
    }
  | Create_table of { table : string; columns : Schema.column list }
  | Create_partitioned of {
      table : string;
      columns : Schema.column list;
      column : string;
      parts : (string * (int * int) option) list;
    }
  | Drop_table of string
  | Create_index of {
      idx_name : string;
      table : string;
      column : string;
      interval : bool;
      unique : bool;
    }
  | Drop_index of string
  | Commit of int option

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

let cells_line cells = String.concat "\t" (Array.to_list cells)
let cells_of_line line = Array.of_list (String.split_on_char '\t' line)

let encode = function
  | Generation { gen; epoch } -> Printf.sprintf "generation %d %d" gen epoch
  | Insert { table; cells } ->
    Printf.sprintf "insert %s\n%s" table (cells_line cells)
  | Delete { table; cells } ->
    Printf.sprintf "delete %s\n%s" table (cells_line cells)
  | Update { table; old_cells; new_cells } ->
    Printf.sprintf "update %s\n%s\n%s" table (cells_line old_cells)
      (cells_line new_cells)
  | Create_table { table; columns } ->
    String.concat "\n"
      (Printf.sprintf "create_table %s" table
      :: List.map Persist.column_line columns)
  | Create_partitioned { table; columns; column; parts } ->
    let part_line (name, bounds) =
      match bounds with
      | None -> Printf.sprintf "part %s default" name
      | Some (f, t) -> Printf.sprintf "part %s %d %d" name f t
    in
    String.concat "\n"
      ((Printf.sprintf "create_partitioned %s %s %d" table column
          (List.length columns)
       :: List.map Persist.column_line columns)
      @ List.map part_line parts)
  | Drop_table table -> Printf.sprintf "drop_table %s" table
  | Create_index { idx_name; table; column; interval; unique } ->
    Printf.sprintf "create_index %s %s %s %s %d" idx_name table column
      (if interval then "interval" else "ordered")
      (if unique then 1 else 0)
  | Drop_index idx_name -> Printf.sprintf "drop_index %s" idx_name
  | Commit None -> "commit"
  | Commit (Some at) -> Printf.sprintf "commit %d" at

let int_field s =
  match int_of_string s with
  | n -> n
  | exception Failure _ -> corrupt "bad integer field %S" s

let decode payload =
  match String.split_on_char '\n' payload with
  | [] -> corrupt "empty record payload"
  | first :: rest -> (
    match String.split_on_char ' ' first, rest with
    (* the bare pre-HA form decodes as epoch 0 *)
    | [ "generation"; g ], [] -> Generation { gen = int_field g; epoch = 0 }
    | [ "generation"; g; e ], [] ->
      Generation { gen = int_field g; epoch = int_field e }
    | [ "insert"; table ], [ cells ] ->
      Insert { table; cells = cells_of_line cells }
    | [ "delete"; table ], [ cells ] ->
      Delete { table; cells = cells_of_line cells }
    | [ "update"; table ], [ old_cells; new_cells ] ->
      Update
        { table;
          old_cells = cells_of_line old_cells;
          new_cells = cells_of_line new_cells }
    | [ "create_table"; table ], columns -> (
      match List.map Persist.parse_column_line columns with
      | columns -> Create_table { table; columns }
      | exception Persist.Format_error msg -> corrupt "%s" msg)
    | [ "create_partitioned"; table; column; ncols ], rest -> (
      let ncols = int_field ncols in
      if List.length rest < ncols then
        corrupt "truncated create_partitioned record";
      let columns = List.filteri (fun i _ -> i < ncols) rest in
      let part_lines = List.filteri (fun i _ -> i >= ncols) rest in
      let part line =
        match String.split_on_char ' ' line with
        | [ "part"; name; "default" ] -> (name, None)
        | [ "part"; name; f; t ] -> (name, Some (int_field f, int_field t))
        | _ -> corrupt "bad partition line %S" line
      in
      match List.map Persist.parse_column_line columns with
      | columns ->
        Create_partitioned
          { table; columns; column; parts = List.map part part_lines }
      | exception Persist.Format_error msg -> corrupt "%s" msg)
    | [ "drop_table"; table ], [] -> Drop_table table
    | [ "create_index"; idx_name; table; column; kind; unique ], [] ->
      let interval =
        match kind with
        | "interval" -> true
        | "ordered" -> false
        | k -> corrupt "unknown index kind %S" k
      in
      Create_index { idx_name; table; column; interval; unique = unique = "1" }
    | [ "drop_index"; idx_name ], [] -> Drop_index idx_name
    (* the bare pre-HA marker decodes as "instant unknown" *)
    | [ "commit" ], [] -> Commit None
    | [ "commit"; at ], [] -> Commit (Some (int_field at))
    | _ -> corrupt "unrecognized record %S" first)

let frame record =
  let payload = encode record in
  Printf.sprintf "tipwal %d %08lx\n%s\n" (String.length payload)
    (crc32 payload) payload

(* --- Appending --------------------------------------------------------- *)

type sync_policy = Always | Every_n of int | Never

let sync_policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "always" -> Some Always
  | "never" -> Some Never
  | s ->
    let prefix = "every=" in
    let n = String.length prefix in
    if String.length s > n && String.sub s 0 n = prefix then
      match int_of_string (String.sub s n (String.length s - n)) with
      | k when k > 0 -> Some (Every_n k)
      | _ | (exception Failure _) -> None
    else None

type writer = {
  path : string;
  fd : Unix.file_descr;
  sync_policy : sync_policy;
  mutable epoch : int; (* promotion epoch stamped into generation frames *)
  mutable unsynced_commits : int;
  mutable appended : int; (* records since open/truncate *)
  mutable bytes : int; (* bytes written since open/truncate *)
  mutable closed : bool;
}

let write_frames w records =
  let buf = Buffer.create 256 in
  List.iter (fun r -> Buffer.add_string buf (frame r)) records;
  Metrics.add m_appends (List.length records);
  Metrics.add m_bytes (Buffer.length buf);
  Span.with_ Span.WalAppend (fun () ->
      Failpoint.write ~site:"wal.write" w.fd (Buffer.to_bytes buf));
  w.bytes <- w.bytes + Buffer.length buf

(* All durable-path fsyncs funnel through here so the counter (and the
   WalFsync wait attribution) cannot drift from the failpoint site. *)
let fsync_fd fd =
  Metrics.incr m_fsyncs;
  Span.with_ Span.WalFsync (fun () ->
      Failpoint.fsync ~site:"wal.fsync" fd)

(* Creates (or truncates) the log and stamps it with [gen]/[epoch]. *)
let create ?(sync = Always) ?(epoch = 0) ~gen path =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let w =
    { path;
      fd;
      sync_policy = sync;
      epoch;
      unsynced_commits = 0;
      appended = 0;
      bytes = 0;
      closed = false }
  in
  write_frames w [ Generation { gen; epoch } ];
  fsync_fd fd;
  w

let check_open w = if w.closed then invalid_arg "Wal: writer is closed"

(* Appends the records plus a commit marker — stamped with the commit
   instant [at] (unix seconds) when the caller knows it — in one write,
   then syncs according to the policy. Once this returns under
   [Always], the records survive any crash. *)
let commit ?at w records =
  check_open w;
  Metrics.incr m_commits;
  write_frames w (records @ [ Commit at ]);
  w.appended <- w.appended + List.length records + 1;
  match w.sync_policy with
  | Always -> fsync_fd w.fd
  | Never -> ()
  | Every_n n ->
    w.unsynced_commits <- w.unsynced_commits + 1;
    if w.unsynced_commits >= n then begin
      fsync_fd w.fd;
      w.unsynced_commits <- 0
    end

let record_count w = w.appended
let offset w = w.bytes
let pending_sync w = w.unsynced_commits > 0

(* Empties the log and stamps the new generation (the checkpoint's
   second half; the snapshot carrying [gen] must already be in place).
   [epoch] bumps the promotion epoch — only a replica promotion does. *)
let truncate ?epoch w ~gen =
  check_open w;
  Metrics.incr m_truncates;
  (match epoch with Some e -> w.epoch <- e | None -> ());
  Unix.ftruncate w.fd 0;
  ignore (Unix.lseek w.fd 0 Unix.SEEK_SET);
  w.bytes <- 0;
  write_frames w [ Generation { gen; epoch = w.epoch } ];
  fsync_fd w.fd;
  w.appended <- 0;
  w.unsynced_commits <- 0

let sync w =
  check_open w;
  fsync_fd w.fd;
  w.unsynced_commits <- 0

(* Closing never flushes anything (appends are unbuffered writes), so
   it is safe to close a writer after a simulated crash. *)
let close w =
  if not w.closed then begin
    w.closed <- true;
    try Unix.close w.fd with Unix.Unix_error _ -> ()
  end

(* --- Reading ----------------------------------------------------------- *)

(* The one frame parser: every reader cuts frames with it. It never
   raises: a partial frame is reported as [`Need_more] so a stream reader
   can wait for more bytes, and damage as [`Corrupt].

   Frame headers are short ("tipwal <len> <crc>\n" tops out well under
   64 bytes), so a missing newline in a 64-byte window is damage, not
   an incomplete header — without that bound a corrupted header would
   make the receiver wait for more bytes forever. *)
let max_header = 64

let parse_frame buf ~pos =
  let len = String.length buf in
  if pos >= len then `Need_more
  else
    match String.index_from_opt buf pos '\n' with
    | None -> if len - pos > max_header then `Corrupt "unterminated frame header" else `Need_more
    | Some nl when nl - pos > max_header -> `Corrupt "oversized frame header"
    | Some nl -> (
      let header = String.sub buf pos (nl - pos) in
      match String.split_on_char ' ' header with
      | [ "tipwal"; plen; crc ] -> (
        match int_of_string plen with
        | exception Failure _ -> `Corrupt (Printf.sprintf "bad frame length %S" plen)
        | plen when plen < 0 -> `Corrupt (Printf.sprintf "bad frame length %d" plen)
        | plen ->
          (* header \n payload \n *)
          let frame_end = nl + 1 + plen + 1 in
          if len < frame_end then `Need_more
          else begin
            let payload = String.sub buf (nl + 1) plen in
            if buf.[frame_end - 1] <> '\n' then `Corrupt "missing frame terminator"
            else
              let actual = Printf.sprintf "%08lx" (crc32 payload) in
              if not (String.equal actual crc) then
                `Corrupt
                  (Printf.sprintf "CRC mismatch (stored %s, computed %s)" crc
                     actual)
              else
                match decode payload with
                | record -> `Frame (record, frame_end)
                | exception Corrupt msg -> `Corrupt msg
          end)
      | _ -> `Corrupt (Printf.sprintf "bad frame header %S" header))

let leading_generation log =
  match parse_frame log ~pos:0 with
  | `Frame (Generation { gen; epoch }, next) -> Some (gen, epoch, next)
  | `Frame _ | `Need_more | `Corrupt _ -> None

(* --- Replay ------------------------------------------------------------ *)

(* Finds the first (lowest-rid) live row equal to [row]. An ordered
   index on a column where [row] is not NULL narrows the candidates to
   the rows sharing that key; only a table without one pays a full scan. *)
let find_row table row =
  let equal stored =
    Array.length stored = Array.length row && Array.for_all2 Value.equal stored row
  in
  let probe =
    List.find_map
      (fun idx ->
        let c = idx.Table.idx_column in
        match idx.Table.impl with
        | Table.Ordered_impl bt
          when c < Array.length row && not (Value.is_null row.(c)) ->
          Some (Btree.find bt row.(c))
        | Table.Ordered_impl _ | Table.Interval_impl _ -> None)
      (Table.indexes table)
  in
  match probe with
  | Some rids ->
    List.fold_left
      (fun best rid ->
        let lower = match best with Some b -> rid < b | None -> true in
        match Table.get table rid with
        | Some stored when lower && equal stored -> Some rid
        | Some _ | None -> best)
      None rids
  | None -> (
    let exception Found of int in
    match
      Table.iteri (fun rid stored -> if equal stored then raise (Found rid)) table
    with
    | () -> None
    | exception Found rid -> Some rid)

let row_types table =
  Array.map (fun c -> c.Schema.ty) (Table.schema table).Schema.columns

let parse_cells ?intern table cells =
  match Persist.parse_row ?intern (row_types table) cells with
  | row -> row
  | exception Persist.Format_error msg -> corrupt "%s" msg

(* Applies one record to the catalog.
   @raise Corrupt when the record does not fit the catalog (a log that
   does not match its snapshot). *)
let apply ?intern catalog record =
  let table_exn name =
    match Catalog.find_table catalog name with
    | Some t -> t
    | None -> corrupt "no such table %s in log replay" name
  in
  match record with
  | Generation _ | Commit _ -> ()
  | Insert { table; cells } ->
    let table = table_exn table in
    let row = parse_cells ?intern table cells in
    ignore (Table.insert table row);
    (* Replayed inserts into partition children (recovery, replication)
       must keep the parent's pruning watermark sound. *)
    Catalog.note_partition_write catalog table row
  | Delete { table; cells } -> (
    let table = table_exn table in
    match find_row table (parse_cells table cells) with
    | Some rid -> ignore (Table.delete table rid)
    | None -> corrupt "no row matches a logged DELETE on %s" (Table.name table))
  | Update { table; old_cells; new_cells } -> (
    let table = table_exn table in
    match find_row table (parse_cells table old_cells) with
    | Some rid ->
      let row = parse_cells ?intern table new_cells in
      ignore (Table.update table rid row);
      Catalog.note_partition_write catalog table row
    | None -> corrupt "no row matches a logged UPDATE on %s" (Table.name table))
  | Create_table { table; columns } ->
    ignore (Catalog.create_table catalog (Schema.make ~table_name:table columns))
  | Create_partitioned { table; columns; column; parts } ->
    ignore
      (Catalog.create_partitioned catalog
         (Schema.make ~table_name:table columns)
         ~column ~parts)
  | Drop_table table -> ignore (Catalog.drop_table catalog table)
  | Create_index { idx_name; table; column; interval; unique } ->
    ignore
      (Catalog.create_index catalog ~idx_name ~table_name:table ~column ~unique
         ~kind:(if interval then Table.Interval else Table.Ordered))
  | Drop_index idx_name -> ignore (Catalog.drop_index catalog idx_name)

(* --- The one replay loop ------------------------------------------------ *)

type stop =
  | End
  | Torn
  | Bad_frame of string
  | Apply_failed of string
  | Generation_frame of { gen : int; epoch : int }
  | Past_target

type cursor = {
  mutable pos : int; (* next byte to cut *)
  mutable boundary : int; (* past the last commit or accepted generation *)
  mutable open_batch : record list; (* cut past [boundary], newest first *)
  mutable batches : int;
  mutable records : int; (* commit markers excluded *)
  mutable last_commit_at : int option;
}

let cursor ?last_commit_at pos =
  { pos; boundary = pos; open_batch = []; batches = 0; records = 0;
    last_commit_at }

let seek c pos =
  c.pos <- pos;
  c.boundary <- pos;
  c.open_batch <- []

let drop_prefix c n =
  if n < 0 || n > c.boundary then invalid_arg "Wal.drop_prefix";
  c.pos <- c.pos - n;
  c.boundary <- c.boundary - n

let position c = c.pos
let boundary c = c.boundary
let batches c = c.batches
let records c = c.records
let last_commit_at c = c.last_commit_at

(* Cuts frames from [bytes] and applies each batch at its commit marker.
   A batch is applied only whole: frames past the last commit stay in
   [open_batch] across calls, so a stream reader resumes over a longer
   buffer without decoding any frame twice. *)
let replay ?until ?(before_batch = ignore) catalog c ~gen ~epoch bytes =
  (* equal CHAR cells of the rows this call applies share one value *)
  let intern = Hashtbl.create 64 in
  let rec step () =
    match parse_frame bytes ~pos:c.pos with
    | `Need_more -> if c.pos < String.length bytes then Torn else End
    | `Corrupt msg -> Bad_frame msg
    | `Frame (Generation g, next) ->
      if c.open_batch <> [] then Bad_frame "generation frame inside an open batch"
      else if g.gen <> gen || g.epoch <> epoch then
        Generation_frame { gen = g.gen; epoch = g.epoch }
      else begin
        seek c next;
        step ()
      end
    | `Frame (Commit at, next) -> (
      match until, at with
      | Some target, Some instant when instant > target -> Past_target
      | _ -> (
        let batch = List.rev c.open_batch in
        before_batch ();
        match List.iter (apply ~intern catalog) batch with
        | () ->
          c.batches <- c.batches + 1;
          c.records <- c.records + List.length batch;
          if at <> None then c.last_commit_at <- at;
          seek c next;
          step ()
        | exception
            ( Corrupt msg
            | Table.Constraint_violation msg
            | Catalog.Catalog_error msg
            | Schema.Schema_error msg ) ->
          Apply_failed msg))
    | `Frame (record, next) ->
      c.open_batch <- record :: c.open_batch;
      c.pos <- next;
      step ()
  in
  step ()

let stop_reason = function
  | End | Past_target -> None
  | Torn -> Some "torn frame at the end of the log"
  | Bad_frame msg | Apply_failed msg -> Some msg
  | Generation_frame { gen; epoch } ->
    Some (Printf.sprintf "unexpected generation frame %d (epoch %d)" gen epoch)
