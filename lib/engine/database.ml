(* The database facade: parse, bind NOW, plan, execute.

   NOW handling (the paper's Section 2/4 semantics): each statement binds
   the special symbol NOW exactly once, to the current transaction time —
   either the wall clock or its session's override installed by
   [SET NOW = ...] (the what-if mechanism the TIP Browser exposes). The
   binding travels in the statement's [Expr_eval.ctx] ([ectx.now]) and
   nowhere else, so every blade routine, cast and comparison observes
   the same frozen instant, and statements running side by side each
   keep their own.

   Sessions: a [session] owns one client's transaction journal, NOW
   override and statement timeout; [t] keeps one for callers that name
   none. Only one session may have a transaction open ([t.tx_holder]).

   Concurrency: read-only statements ([SELECT], compound [SELECT],
   [EXPLAIN [ANALYZE]]) write no field of [t] or of their session and
   keep no per-statement state in globals, so a caller may run them
   concurrently under a shared lock; every other statement needs the
   database to itself.

   Transactions keep an in-memory journal: insert, delete and update are
   undoable; DDL auto-commits (documented in DESIGN.md). *)

open Tip_storage
module Ast = Tip_sql.Ast
module Parser = Tip_sql.Parser
module Metrics = Tip_obs.Metrics
module Span = Tip_obs.Span
module Introspect = Tip_obs.Introspect
module Deadline = Tip_core.Deadline

exception Error of string

let db_error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let m_checkpoints =
  Metrics.counter "checkpoints_total" ~help:"Durable checkpoints taken"

let m_cancelled =
  Metrics.counter "engine_statements_cancelled_total"
    ~help:"Statements aborted by their governance token (any reason)"

let m_timed_out =
  Metrics.counter "engine_statements_timed_out_total"
    ~help:"Statements aborted because their deadline passed"

(* Statement tracing; enable with Logs.Src.set_level (or tip_shell
   --verbose). *)
let log_src = Logs.Src.create "tip.database" ~doc:"TIP statement execution"

module Log = (val Logs.src_log log_src : Logs.LOG)

type undo =
  | U_insert of Table.t * int
  | U_delete of Table.t * Value.t array
  | U_update of Table.t * int * Value.t array

(* One entry of a session's journal. A row change carries its undo and,
   when a WAL is attached, its redo record. DDL carries only its redo
   record: DDL auto-commits, so ROLLBACK keeps it. *)
type entry =
  | Change of undo * Wal.record option
  | Ddl of Wal.record
  | Savepoint of string

(* Everything one client owns: its journal (newest first), its NOW
   override and its statement timeout, each with the value the session
   started with. Outside a transaction the journal holds only the
   running statement's entries and empties at its end; inside one it
   holds the whole transaction. *)
type session = {
  mutable journal : entry list;
  now_default : Tip_core.Chronon.t option;
  mutable now_override : Tip_core.Chronon.t option;
  timeout_default : int option;
  mutable timeout_ms : int option;
}

type durability = {
  dir : string;
  wal : Wal.writer;
  mutable gen : int; (* generation shared by snapshot and log *)
  mutable epoch : int; (* promotion epoch (DESIGN.md §15); bumps on promote *)
  archive_dir : string option; (* seal generations here at checkpoint *)
  checkpoint_every : int; (* auto-checkpoint threshold in records; 0 = off *)
  mutable last_commit_at : int option;
      (* instant (unix seconds) of the newest commit in the log — stamps
         snapshots ([asof]) so backups know their PITR floor *)
}

type t = {
  catalog : Catalog.t;
  ext : Extension.t;
  own : session; (* the session of callers that name none *)
  mutable tx_holder : session option;
      (* the one session with an open transaction; every other session's
         statements are refused BUSY until it ends *)
  mutable durability : durability option;
  mutable read_only : bool;
      (* a read replica: every mutating statement is refused with a
         typed READ_ONLY error; the replication stream bypasses the
         statement layer entirely (Wal.apply against the catalog) *)
}

type result =
  | Rows of { names : string list; rows : Value.t array list }
  | Affected of int
  | Message of string

let new_session ~now ~timeout_ms =
  { journal = [];
    now_default = now;
    now_override = now;
    timeout_default = timeout_ms;
    timeout_ms }

(* [catalog] lets a database be opened over a catalog restored from a
   snapshot (any extension types must be registered before loading). *)
let create ?catalog () =
  let ext = Extension.create () in
  Builtins.install ext;
  { catalog = (match catalog with Some c -> c | None -> Catalog.create ());
    ext;
    own = new_session ~now:None ~timeout_ms:None;
    tx_holder = None;
    durability = None;
    read_only = false }

(* A new session starts from the NOW override and statement timeout the
   database's own session has at that moment; [timeout_ms] replaces the
   latter. *)
let session ?timeout_ms t =
  new_session ~now:t.own.now_override
    ~timeout_ms:(if timeout_ms = None then t.own.timeout_ms else timeout_ms)

let catalog t = t.catalog
let extension t = t.ext
let durability_dir t = Option.map (fun d -> d.dir) t.durability
let set_read_only t flag = t.read_only <- flag
let read_only t = t.read_only

(* Per-session accessors: no [session] means the database's own. *)
let session_of t = function Some s -> s | None -> t.own
let now_override ?session t = (session_of t session).now_override
let statement_timeout_ms ?session t = (session_of t session).timeout_ms

let set_now ?session t now =
  let s = session_of t session in
  s.now_override <- (match now with Some _ -> now | None -> s.now_default)

let in_transaction ?session t =
  Option.fold t.tx_holder ~none:false ~some:(fun h -> h == session_of t session)

(* --- The journal ---------------------------------------------------------- *)

let row_cells row = Array.map Persist.serialize_value row

(* Records a row change; with a WAL attached, its redo record is built
   from the undo and the row as it now stands. *)
let log_change t s undo =
  let redo =
    if t.durability = None then None
    else
      Some
        (match undo with
        | U_insert (table, rid) ->
          Wal.Insert
            { table = Table.name table;
              cells = row_cells (Table.get_exn table rid) }
        | U_delete (table, row) ->
          Wal.Delete { table = Table.name table; cells = row_cells row }
        | U_update (table, rid, old_row) ->
          Wal.Update
            { table = Table.name table;
              old_cells = row_cells old_row;
              new_cells = row_cells (Table.get_exn table rid) })
  in
  s.journal <- Change (undo, redo) :: s.journal

let log_ddl t s r = if t.durability <> None then s.journal <- Ddl r :: s.journal

let undo_change = function
  | U_insert (table, rid) -> ignore (Table.delete table rid)
  | U_delete (table, row) -> ignore (Table.insert table row)
  | U_update (table, rid, old_row) -> ignore (Table.update table rid old_row)

(* Undoes the journal's row changes, newest first, back to the savepoint
   [upto] (which stays) or all of them. Savepoints passed on the way go;
   DDL entries stay, as DDL is not undoable. *)
let unwind ?upto journal =
  let rec go kept = function
    | Savepoint n :: _ as rest when Some n = upto -> List.rev_append kept rest
    | [] -> List.rev kept
    | Change (u, _) :: rest ->
      undo_change u;
      go kept rest
    | Savepoint _ :: rest -> go kept rest
    | (Ddl _ as e) :: rest -> go (e :: kept) rest
  in
  go [] journal

(* Undoes every entry newer than [mark], a suffix of the journal: what a
   cancelled statement added, DDL records included. *)
let rec revert_to mark = function
  | l when l == mark -> l
  | Change (u, _) :: rest ->
    undo_change u;
    revert_to mark rest
  | (Ddl _ | Savepoint _) :: rest -> revert_to mark rest
  | [] -> []

let rollback t s =
  s.journal <- unwind s.journal;
  t.tx_holder <- None

(* The commit boundary: outside a transaction, the session's journal is
   appended to the WAL as one batch plus a commit marker, then emptied.
   The marker is stamped with the session's NOW (so SET NOW keeps
   replay deterministic) — the transaction-time instant point-in-time
   recovery stops on. *)
let end_of_statement t s =
  if not (in_transaction ~session:s t) then begin
    (match t.durability with
    | Some d ->
      let records =
        List.fold_left
          (fun acc e ->
            match e with
            | Change (_, Some r) | Ddl r -> r :: acc
            | Change (_, None) | Savepoint _ -> acc)
          [] s.journal
      in
      if records <> [] then begin
        let at =
          Tip_core.Chronon.to_unix_seconds
            (match s.now_override with
            | Some c -> c
            | None -> Tip_core.Tx_clock.now ())
        in
        Wal.commit ~at d.wal records;
        d.last_commit_at <- Some at
      end
    | None -> ());
    s.journal <- []
  end

(* Rolls back the session's open transaction, if any; its DDL records
   still reach the WAL. *)
let close_session t s =
  if in_transaction ~session:s t then begin
    rollback t s;
    end_of_statement t s
  end

let busy what = db_error "BUSY: cannot %s while a transaction is open" what

(* Atomic checkpoint: render the catalog to snapshot.tmp, fsync, rename
   over the old snapshot, then truncate the log — both stamped with the
   next generation so a crash between the two steps leaves a stale log
   that recovery skips instead of double-applying. With an archive
   attached, the closing generation is sealed *before* the snapshot
   rename: any stale log a crash can leave behind is therefore already
   in the archive, so the chain never loses a generation to the
   crash window. Refused while a transaction is open: the snapshot
   would hold its uncommitted rows. *)
let checkpoint t =
  match t.durability with
  | None -> 0
  | Some d ->
    if t.tx_holder <> None then busy "checkpoint";
    Span.with_ Span.Checkpoint @@ fun () ->
    (* Bring the durability point current before rendering the
       snapshot: an Every_n policy may be holding up to n-1 commits it
       has not fsynced, and a checkpoint is an explicit durability
       request. *)
    if Wal.pending_sync d.wal then Wal.sync d.wal;
    let truncated = Wal.record_count d.wal in
    Option.iter
      (fun adir ->
        Archive.seal ~dir:adir ~wal_path:(Recovery.wal_path ~dir:d.dir)
          ~gen:d.gen)
      d.archive_dir;
    let gen = d.gen + 1 in
    Persist.save ~wal_gen:gen ~epoch:d.epoch ?asof:d.last_commit_at t.catalog
      (Recovery.snapshot_path ~dir:d.dir);
    Wal.truncate d.wal ~gen;
    d.gen <- gen;
    Metrics.incr m_checkpoints;
    Tip_obs.Events.record ~kind:"checkpoint"
      ~detail:
        (Printf.sprintf "gen %d sealed, %d log record(s) truncated" (gen - 1)
           truncated);
    truncated

let maybe_auto_checkpoint t =
  match t.durability with
  | Some d
    when d.checkpoint_every > 0
         && t.tx_holder = None
         && Wal.record_count d.wal >= d.checkpoint_every ->
    Log.info (fun m ->
        m "auto checkpoint (%d log records)" (Wal.record_count d.wal));
    ignore (checkpoint t)
  | Some _ | None -> ()

(* Renders an online backup into [dir]: the same consistent snapshot a
   replica bootstrap ships, plus an origin stamp recording the
   (generation, offset, epoch, asof) it pairs with — the point the
   archived chain resumes from at restore. Runs under the caller's
   (server's) database lock; offsets are commit boundaries because
   flushing happens at statement boundaries only. *)
let backup t ~dir =
  match t.durability with
  | None -> db_error "BACKUP requires a durable database (--durability)"
  | Some d ->
    if t.tx_holder <> None then busy "render a backup";
    if Wal.pending_sync d.wal then Wal.sync d.wal;
    let origin =
      { Archive.o_gen = d.gen;
        o_offset = Wal.offset d.wal;
        o_epoch = d.epoch;
        o_asof = d.last_commit_at }
    in
    Archive.write_backup ~dir
      ~snapshot:
        (Persist.snapshot_string ~wal_gen:d.gen ~epoch:d.epoch
           ?asof:d.last_commit_at t.catalog)
      origin;
    Tip_obs.Events.record ~kind:"backup"
      ~detail:
        (Printf.sprintf "to %s at gen %d offset %d epoch %d" dir d.gen
           origin.Archive.o_offset d.epoch);
    origin

(* --- Value coercion into a column ---------------------------------------- *)

(* Implements the blade's "automatic casts from SQL strings": a string
   arriving in a Chronon/Span/.../DATE column is parsed as a literal of
   that type; other mismatches go through registered implicit casts. *)
let coerce_into t ~now col_ty v =
  match Schema.coerce col_ty v with
  | Some v -> v
  | None -> (
    match col_ty, v with
    | Schema.T_ext target, Value.Str s -> (
      match Value.lookup_type target with
      | Some vt -> (
        match vt.Value.parse s with
        | v -> v
        | exception _ -> db_error "cannot parse %S as %s" s target)
      | None -> db_error "type %s not registered" target)
    | Schema.T_ext target, v -> (
      match
        Extension.find_implicit_cast t.ext ~from_type:(Value.type_name v)
          ~to_type:target
      with
      | Some cast -> cast.Extension.cast_impl ~now v
      | None ->
        db_error "cannot store %s in a %s column" (Value.type_name v) target)
    | Schema.T_date, Value.Str s -> (
      match Tip_core.Chronon.of_string s with
      | Some c -> Value.Date (Tip_core.Chronon.start_of_day c)
      | None -> db_error "cannot parse %S as DATE" s)
    | Schema.T_date, v -> (
      match Extension.to_chronon t.ext ~now v with
      | Some c -> Value.Date (Tip_core.Chronon.start_of_day c)
      | None -> db_error "cannot store %s in a DATE column" (Value.type_name v))
    | _, _ ->
      db_error "cannot store %s in a %s column" (Value.type_name v)
        (Schema.type_name col_ty))

(* --- Statement execution ----------------------------------------------------- *)

let statement_now s =
  match s.now_override with
  | Some c -> c
  | None -> Tip_core.Tx_clock.now ()

let make_ectx ?(token = Tip_core.Deadline.never) t ~now ~params =
  { Expr_eval.now;
    params = List.map (fun (k, v) -> (String.lowercase_ascii k, v)) params;
    ext = t.ext;
    token;
    poll_tick = 0 }

(* Evaluates an expression that may reference parameters and subqueries
   but no columns (INSERT values, SET NOW). *)
let eval_standalone t ectx expr =
  let env =
    Expr_eval.base_env ~ext:t.ext
      ~plan_subquery:(Planner.subquery_runner ~ext:t.ext ~ectx t.catalog)
      ~resolve_column:(fun _ name ->
        db_error "column reference %s not allowed here" name)
      ()
  in
  (Expr_eval.compile env expr) ectx [||]

(* Plans a query: a SELECT or a compound SELECT, the only statements
   EXPLAIN takes. *)
let plan_query t ectx ~what = function
  | Ast.Select select -> Planner.plan ~ext:t.ext ~ectx t.catalog select
  | Ast.Select_compound compound ->
    Planner.plan_union ~ext:t.ext ~ectx t.catalog compound
  | _ -> db_error "%s supports only SELECT" what

(* EXPLAIN ANALYZE: plan under a [Plan] child of the statement's
   engine span, wrap every operator with an [Instrument] node, execute
   for real under an [Execute] child, and render the tree annotated
   with actual rows / time. The whole run shares one NOW — it was bound
   (exactly once) by [exec_statement_raw] and travels in [ectx], so an
   operator evaluating NOW late in a long run sees the same instant as
   the first (DESIGN.md §9). *)
let run_explain_analyze t ectx ~span ~now target =
  let plan =
    Span.with_ ~parent:span Span.Plan (fun () ->
        fst (plan_query t ectx ~what:"EXPLAIN ANALYZE" target))
  in
  let plan = Plan.instrument plan in
  let rows =
    Span.with_ ~parent:span Span.Execute (fun () -> Executor.collect ectx plan)
  in
  let span_ns kind =
    Option.fold ~none:0 ~some:Span.elapsed_ns (Span.find_child span kind)
  in
  Message
    (Planner.explain_analyze
       ~now:(Tip_core.Chronon.to_string now)
       ~rows:(List.length rows) ~plan_ns:(span_ns Span.Plan)
       ~exec_ns:(span_ns Span.Execute) plan)

(* Single-table DML helper: the matching (rid, row) pairs, in rid order,
   all collected before the caller mutates anything. Candidates come
   from the access path a SELECT with the same WHERE would take (a
   B+tree range or an interval probe, else every row); the compiled
   WHERE is rechecked on each. *)
let dml_matches t ectx ~qual table where =
  let schema = Table.schema table in
  let layout_resolve _q name = Schema.column_index_exn schema name in
  let pred =
    Option.map
      (fun e ->
        Expr_eval.compile
          (Expr_eval.base_env ~ext:t.ext
             ~plan_subquery:
               (Planner.subquery_runner_for_table ~ext:t.ext ~ectx t.catalog
                  schema)
             ~resolve_column:layout_resolve ())
          e)
      where
  in
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
    (match
       Planner.dml_access_path ~ext:t.ext ~ectx t.catalog ~qual table where
     with
    | Plan.Index_scan { btree; lo; hi; _ } ->
      List.sort_uniq Int.compare (Btree.range btree ~lo ~hi)
    | Plan.Interval_scan { index; lo; hi; _ } ->
      Array.to_list (Executor.interval_rids table index ~lo ~hi)
    | _ -> Table.rids table);
  List.rev !matches

(* The transaction-time shadow table of [table], when WITH HISTORY is
   on: recognized structurally (same columns plus a trailing [_tt]), so
   the link survives snapshots. *)
let history_of t table =
  match Catalog.find_table t.catalog (Table.name table ^ "_history") with
  | None -> None
  | Some h ->
    let hschema = Table.schema h in
    let n = Schema.arity hschema in
    if
      n = Schema.arity (Table.schema table) + 1
      && (Schema.column hschema (n - 1)).Schema.name = "_tt"
    then Some (h, n - 1)
    else None

(* Appends an open history row for a freshly current [row]. *)
let history_open t s ~now table row =
  match history_of t table, Extension.history_support t.ext with
  | Some (h, _), Some support ->
    let hrow = Array.append row [| support.Extension.open_timestamp ~now |] in
    let hrid = Table.insert h hrow in
    log_change t s (U_insert (h, hrid))
  | _, _ -> ()

(* Closes the open history row matching [row] (all columns equal). *)
let history_close t s ~now table row =
  match history_of t table, Extension.history_support t.ext with
  | Some (h, tt), Some support ->
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
            hrow'.(tt) <- support.Extension.close_timestamp ~now hrow.(tt);
            if Table.update h hrid hrow' then
              log_change t s (U_update (h, hrid, hrow));
            closed := true
          end
        end)
      h
  | _, _ -> ()

let insert_row t s ~now table values =
  let schema = Table.schema table in
  let row =
    Array.mapi
      (fun i v -> coerce_into t ~now (Schema.column schema i).Schema.ty v)
      values
  in
  let rid = Table.insert table row in
  Catalog.note_partition_write t.catalog table row;
  log_change t s (U_insert (table, rid));
  history_open t s ~now table row;
  rid

(* Coerce a value row against the partitioned parent's schema, route it
   to the owning partition by its period start, and insert there. The
   coercion must happen before routing (string literals only gain an
   extent once they become period values); [insert_row] re-coercing the
   already-typed row is a no-op. *)
let insert_routed t s ~now pt values =
  let schema = pt.Partition.pt_schema in
  if Array.length values <> Schema.arity schema then
    db_error "INSERT arity mismatch: expected %d values, got %d"
      (Schema.arity schema) (Array.length values);
  let row =
    Array.mapi
      (fun i v -> coerce_into t ~now (Schema.column schema i).Schema.ty v)
      values
  in
  let part =
    try Partition.route pt row
    with Partition.Partition_error msg -> db_error "%s" msg
  in
  ignore (insert_row t s ~now part.Partition.p_table row)

(* Where INSERT and COPY FROM put rows. A partitioned parent accepts
   them like a plain table; its sink routes each row to its owning
   partition. *)
let insert_target t s ~now name =
  match Catalog.find_table t.catalog name with
  | Some tbl ->
    (Table.schema tbl, fun row -> ignore (insert_row t s ~now tbl row))
  | None -> (
    match Catalog.find_partitioned t.catalog name with
    | Some pt ->
      (pt.Partition.pt_schema, fun row -> insert_routed t s ~now pt row)
    | None -> db_error "no such table: %s" name)

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
      (fun col v ->
        let i = Schema.column_index_exn schema col in
        row.(i) <- v)
      cols values;
    row

(* Statements a read replica may run: nothing that mutates rows or the
   catalog, no transactions (a replica has nothing of its own to
   commit), no CHECKPOINT (the replica's source of truth is the
   primary's WAL). ANALYZE and COPY TO are allowed — they touch only
   local planner statistics / an output file. *)
let replica_allowed = function
  | Ast.Select _ | Ast.Select_compound _ | Ast.Explain _ | Ast.Show_tables
  | Ast.Describe _ | Ast.Stats _ | Ast.Analyze _ | Ast.Set_timeout _
  | Ast.Set_now _ | Ast.Copy_to _ ->
    true
  | _ -> false

(* The statements that only read: they write no field of [t] (SET NOW
   and SET TIMEOUT write only their own session), so they may run
   concurrently with each other (DESIGN.md §17). *)
let read_only_statement = function
  | Ast.Select _ | Ast.Select_compound _ | Ast.Explain _ | Ast.Set_now _
  | Ast.Set_timeout _ ->
    true
  | _ -> false

let exec_statement_raw t s ~token ~span ~params stmt =
  if t.read_only && not (replica_allowed stmt) then
    db_error "READ_ONLY: this is a read replica; send writes to the primary";
  (* One open transaction at a time, and nobody else reads or writes
     beside it: a wire session holding it also holds the server's
     database lock, so only embedded callers can get here. *)
  (match t.tx_holder with
  | Some h when h != s ->
    db_error "BUSY: another session has a transaction open"
  | Some _ | None -> ());
  (* The statement's NOW is read from the clock exactly once, here, and
     frozen for the whole statement: the root span of its trace carries
     it, and it reaches every later reader — blade routines, plan
     operators, EXPLAIN ANALYZE instrumentation — through [ectx.now]
     alone (the audit in DESIGN.md §9 lists the call sites). *)
  let now = statement_now s in
  Span.annotate (Span.root span) "now" (Span.Chronon now);
  Log.debug (fun m ->
      m "executing (NOW = %s): %s"
        (Tip_core.Chronon.to_string now)
        (Tip_sql.Pretty.statement_to_string stmt));
  let ectx = make_ectx ~token t ~now ~params in
  match stmt with
  | (Ast.Select _ | Ast.Select_compound _) as query ->
    let plan, names = plan_query t ectx ~what:"EXPLAIN" query in
    Rows { names = Array.to_list names; rows = Executor.collect ectx plan }
  | Ast.Explain { analyze = false; target } ->
    Message (Planner.explain (fst (plan_query t ectx ~what:"EXPLAIN" target)))
  | Ast.Explain { analyze = true; target } ->
    run_explain_analyze t ectx ~span ~now target
  | Ast.Insert { table; columns; source } -> (
    let schema, sink = insert_target t s ~now table in
    match source with
    | Ast.Values rows ->
      let n =
        List.fold_left
          (fun n exprs ->
            let values = List.map (eval_standalone t ectx) exprs in
            let row = reorder_columns schema columns values in
            sink row;
            n + 1)
          0 rows
      in
      Affected n
    | Ast.Query select ->
      let plan, _ = Planner.plan ~ext:t.ext ~ectx t.catalog select in
      let n = ref 0 in
      Seq.iter
        (fun produced ->
          let row =
            reorder_columns schema columns (Array.to_list produced)
          in
          sink row;
          incr n)
        (Executor.run ectx plan);
      Affected !n)
  | Ast.Update { table = tname; assignments; where } -> (
    let compile_assignments schema =
      let layout_resolve _q name = Schema.column_index_exn schema name in
      let env =
        Expr_eval.base_env ~ext:t.ext
          ~plan_subquery:
            (Planner.subquery_runner_for_table ~ext:t.ext ~ectx t.catalog
               schema)
          ~resolve_column:layout_resolve ()
      in
      List.map
        (fun (col, e) ->
          let i = Schema.column_index_exn schema col in
          (i, Expr_eval.compile env e))
        assignments
    in
    let apply_assignments schema compiled old_row =
      let row = Array.copy old_row in
      List.iter
        (fun (i, c) ->
          row.(i) <-
            coerce_into t ~now (Schema.column schema i).Schema.ty
              (c ectx old_row))
        compiled;
      row
    in
    let update_in_place table rid old_row row =
      if Table.update table rid row then begin
        Catalog.note_partition_write t.catalog table row;
        log_change t s (U_update (table, rid, old_row));
        history_close t s ~now table old_row;
        match Table.get table rid with
        | Some stored -> history_open t s ~now table stored
        | None -> ()
      end
    in
    match Catalog.find_table t.catalog tname with
    | Some table ->
      let schema = Table.schema table in
      let compiled = compile_assignments schema in
      let matches = dml_matches t ectx ~qual:tname table where in
      List.iter
        (fun (rid, old_row) ->
          Expr_eval.tick ectx;
          update_in_place table rid old_row
            (apply_assignments schema compiled old_row))
        matches;
      Affected (List.length matches)
    | None -> (
      match Catalog.find_partitioned t.catalog tname with
      | None -> db_error "no such table: %s" tname
      | Some pt ->
        (* Children share the parent's column layout, so assignments
           compile once against the parent schema. All matches are
           collected before any row is touched: a row moved forward
           into a not-yet-visited partition must not match again
           there (the Halloween problem). *)
        let schema = pt.Partition.pt_schema in
        let compiled = compile_assignments schema in
        let matches =
          List.concat_map
            (fun (src : Partition.part) ->
              List.map
                (fun (rid, old_row) -> (src, rid, old_row))
                (dml_matches t ectx ~qual:tname src.Partition.p_table where))
            (Partition.all_parts pt)
        in
        List.iter
          (fun ((src : Partition.part), rid, old_row) ->
            Expr_eval.tick ectx;
            let table = src.Partition.p_table in
            let row = apply_assignments schema compiled old_row in
            let dst =
              try Partition.route pt row
              with Partition.Partition_error msg -> db_error "%s" msg
            in
            if dst.Partition.p_name = src.Partition.p_name then
              update_in_place table rid old_row row
            else if Table.delete table rid then begin
              (* Cross-partition move, journaled as a child-table
                 DELETE plus INSERT so recovery and replicas replay
                 it without partition awareness. *)
              log_change t s (U_delete (table, old_row));
              history_close t s ~now table old_row;
              ignore (insert_row t s ~now dst.Partition.p_table row)
            end)
          matches;
        Affected (List.length matches)))
  | Ast.Delete { table = tname; where } -> (
    let delete_from table =
      let matches = dml_matches t ectx ~qual:tname table where in
      List.iter
        (fun (rid, old_row) ->
          Expr_eval.tick ectx;
          if Table.delete table rid then begin
            log_change t s (U_delete (table, old_row));
            history_close t s ~now table old_row
          end)
        matches;
      List.length matches
    in
    match Catalog.find_table t.catalog tname with
    | Some table -> Affected (delete_from table)
    | None -> (
      match Catalog.find_partitioned t.catalog tname with
      | Some pt ->
        Affected
          (List.fold_left
             (fun acc (p : Partition.part) ->
               acc + delete_from p.Partition.p_table)
             0 (Partition.all_parts pt))
      | None -> db_error "no such table: %s" tname))
  | Ast.Create_table { table; if_not_exists; columns; with_history; partition_by }
    ->
    if
      if_not_exists
      && (Catalog.find_table t.catalog table <> None
         || Catalog.find_partitioned t.catalog table <> None)
    then Message (Printf.sprintf "table %s already exists, skipped" table)
    else begin
      let cols =
        List.map
          (fun (c : Ast.column_def) ->
            let ty = Schema.type_of_name ?param:c.col_type_param c.col_type in
            Schema.make_column ~not_null:c.col_not_null
              ~primary_key:c.col_primary_key c.col_name ty)
          columns
      in
      match partition_by with
      | Some pc ->
        if with_history then
          db_error
            "PARTITION BY cannot be combined with WITH HISTORY (partition \
             the current table and shadow it manually if both are needed)";
        let parse_instant pname s =
          match Tip_core.Chronon.of_string s with
          | Some c -> Tip_core.Chronon.to_unix_seconds c
          | None ->
            db_error "partition %s: cannot parse instant '%s'" pname s
        in
        let parts =
          List.map
            (fun (d : Ast.partition_def) ->
              match d.Ast.part_range with
              | None -> (d.Ast.part_name, None)
              | Some (f, upto) ->
                ( d.Ast.part_name,
                  Some
                    ( parse_instant d.Ast.part_name f,
                      parse_instant d.Ast.part_name upto ) ))
            pc.Ast.part_defs
        in
        (try
           ignore
             (Catalog.create_partitioned t.catalog
                (Schema.make ~table_name:table cols)
                ~column:pc.Ast.part_column ~parts)
         with Partition.Partition_error msg -> db_error "%s" msg);
        log_ddl t s
          (Wal.Create_partitioned
             { table; columns = cols; column = pc.Ast.part_column; parts });
        Message
          (Printf.sprintf "table %s created (%d partitions)"
             (String.lowercase_ascii table)
             (List.length parts))
      | None ->
      (* Resolve history support before creating anything, so a
         failure leaves no half-created table behind. *)
      let history_cols =
        if not with_history then None
        else begin
          match Extension.history_support t.ext with
          | None ->
            db_error
              "WITH HISTORY requires a temporal blade with history support"
          | Some support ->
            (* history rows repeat values over time, so the shadow
               drops uniqueness but keeps NOT NULL *)
            Some
              (List.map
                 (fun (c : Schema.column) ->
                   Schema.make_column ~not_null:c.Schema.not_null
                     c.Schema.name c.Schema.ty)
                 cols
              @ [ Schema.make_column "_tt"
                    (Schema.type_of_name support.Extension.timestamp_type)
                ])
        end
      in
      ignore (Catalog.create_table t.catalog (Schema.make ~table_name:table cols));
      log_ddl t s (Wal.Create_table { table; columns = cols });
      Option.iter
        (fun hcols ->
          let table = table ^ "_history" in
          ignore
            (Catalog.create_table t.catalog
               (Schema.make ~table_name:table hcols));
          log_ddl t s (Wal.Create_table { table; columns = hcols }))
        history_cols;
      Message
        (Printf.sprintf "table %s created%s"
           (String.lowercase_ascii table)
           (if with_history then " (with transaction-time history)" else ""))
    end
  | Ast.Create_table_as { table; query } ->
    (* Column types are inferred from the first non-NULL value in
       each output column; all-NULL columns default to TEXT. *)
    let plan, names = Planner.plan ~ext:t.ext ~ectx t.catalog query in
    let rows = Executor.collect ectx plan in
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
      Catalog.create_table t.catalog (Schema.make ~table_name:table cols)
    in
    log_ddl t s (Wal.Create_table { table; columns = cols });
    (* CTAS backfill is DDL-class in the log: like the table itself
       it is not undone by ROLLBACK. *)
    List.iter
      (fun row ->
        let rid = Table.insert created row in
        log_ddl t s
          (Wal.Insert
             { table = Table.name created;
               cells = row_cells (Table.get_exn created rid) }))
      rows;
    Message
      (Printf.sprintf "table %s created (%d rows)"
         (String.lowercase_ascii table)
         (List.length rows))
  | Ast.Drop_table { table; if_exists } ->
    if Catalog.drop_table t.catalog table then begin
      log_ddl t s (Wal.Drop_table table);
      Message (Printf.sprintf "table %s dropped" table)
    end
    else if if_exists then Message "no such table, skipped"
    else db_error "no such table: %s" table
  | Ast.Create_index { index; table; column; unique; using } -> (
    let kind =
      match Option.map String.lowercase_ascii using with
      | None | Some "btree" | Some "ordered" -> Table.Ordered
      | Some "interval" -> Table.Interval
      | Some other -> db_error "unknown index kind %s" other
    in
    let journal_one ~idx_name ~table_name =
      log_ddl t s
        (Wal.Create_index
           { idx_name;
             table = table_name;
             column;
             interval = kind = Table.Interval;
             unique })
    in
    match Catalog.find_partitioned t.catalog table with
    | Some pt ->
      (* One physical index per child, [<index>__<partition>]; DROP
         INDEX on the parent-level name removes the whole family. *)
      List.iter
        (fun (p : Partition.part) ->
          let idx_name = index ^ "__" ^ p.Partition.p_name in
          let table_name = Table.name p.Partition.p_table in
          ignore
            (Catalog.create_index t.catalog ~idx_name ~table_name ~column
               ~unique ~kind);
          journal_one ~idx_name ~table_name)
        (Partition.all_parts pt);
      Message
        (Printf.sprintf "index %s created (%d partitions)" index
           (List.length (Partition.all_parts pt)))
    | None ->
      ignore
        (Catalog.create_index t.catalog ~idx_name:index ~table_name:table
           ~column ~unique ~kind);
      journal_one ~idx_name:index ~table_name:table;
      Message (Printf.sprintf "index %s created" index))
  | Ast.Drop_index { index } ->
    if Catalog.drop_index t.catalog index then begin
      log_ddl t s (Wal.Drop_index index);
      Message (Printf.sprintf "index %s dropped" index)
    end
    else begin
      (* A parent-level name for a per-partition index family:
         drop every [<index>__<partition>] member that exists. *)
      let dropped = ref 0 in
      List.iter
        (fun parent ->
          match Catalog.find_partitioned t.catalog parent with
          | None -> ()
          | Some pt ->
            List.iter
              (fun (p : Partition.part) ->
                let idx_name = index ^ "__" ^ p.Partition.p_name in
                if Catalog.drop_index t.catalog idx_name then begin
                  log_ddl t s (Wal.Drop_index idx_name);
                  incr dropped
                end)
              (Partition.all_parts pt))
        (Catalog.partitioned_names t.catalog);
      if !dropped > 0 then
        Message
          (Printf.sprintf "index %s dropped (%d partitions)" index !dropped)
      else db_error "no such index: %s" index
    end
  | Ast.Begin_tx ->
    if t.tx_holder <> None then db_error "already in a transaction";
    t.tx_holder <- Some s;
    Message "BEGIN"
  | Ast.Commit_tx ->
    if not (in_transaction ~session:s t) then
      db_error "no transaction in progress";
    t.tx_holder <- None;
    Message "COMMIT"
  | Ast.Rollback_tx ->
    if not (in_transaction ~session:s t) then
      db_error "no transaction in progress";
    rollback t s;
    Message "ROLLBACK"
  | Ast.Savepoint name ->
    if not (in_transaction ~session:s t) then
      db_error "SAVEPOINT requires a transaction";
    s.journal <- Savepoint (String.lowercase_ascii name) :: s.journal;
    Message (Printf.sprintf "SAVEPOINT %s" name)
  | Ast.Rollback_to name ->
    if not (in_transaction ~session:s t) then
      db_error "no transaction in progress";
    let name = String.lowercase_ascii name in
    if not (List.exists (function Savepoint n -> n = name | _ -> false) s.journal)
    then
      db_error "no such savepoint: %s" name;
    (* the savepoint stays, so it can be rolled back to again *)
    s.journal <- unwind ~upto:name s.journal;
    Message (Printf.sprintf "ROLLBACK TO %s" name)
  | Ast.Release_savepoint name ->
    if not (in_transaction ~session:s t) then
      db_error "no transaction in progress";
    let name = String.lowercase_ascii name in
    let rec release newer = function
      | [] -> db_error "no such savepoint: %s" name
      | Savepoint n :: rest when n = name -> List.rev_append newer rest
      | e :: rest -> release (e :: newer) rest
    in
    s.journal <- release [] s.journal;
    Message (Printf.sprintf "RELEASE %s" name)
  | Ast.Copy_to { table; file } ->
    let table =
      match Catalog.find_table t.catalog table with
      | Some tbl -> tbl
      | None ->
        if Catalog.find_partitioned t.catalog table <> None then
          db_error
            "COPY TO a partitioned table is not supported; COPY each \
             partition child (%s__<partition>)"
            table
        else db_error "no such table: %s" table
    in
    let n =
      try Csv.export table file
      with Sys_error msg | Csv.Csv_error msg -> db_error "COPY: %s" msg
    in
    Message (Printf.sprintf "COPY %d rows to %s" n file)
  | Ast.Copy_from { table; file } ->
    let schema, sink = insert_target t s ~now table in
    let n =
      try Csv.import ~schema ~insert:sink file
      with Sys_error msg | Csv.Csv_error msg -> db_error "COPY: %s" msg
    in
    Affected n
  | Ast.Set_timeout ms -> (
    (* DEFAULT restores the timeout the session started with *)
    s.timeout_ms <-
      (match ms with
      | None -> s.timeout_default
      | Some ms when ms < 0 ->
        db_error "SET TIMEOUT expects a non-negative value"
      | Some 0 -> None
      | Some _ -> ms);
    match s.timeout_ms with
    | None -> Message "statement timeout disabled"
    | Some ms -> Message (Printf.sprintf "statement timeout set to %d ms" ms))
  | Ast.Set_now e -> (
    (* DEFAULT restores the NOW the session started with *)
    s.now_override <-
      (match e with
      | None -> s.now_default
      | Some e ->
        let v = eval_standalone t ectx e in
        let c =
          match v with
          | Value.Str text -> Tip_core.Chronon.of_string text
          | v -> Extension.to_chronon t.ext ~now v
        in
        if c = None then
          db_error "SET NOW expects a time value, got %s" (Value.type_name v);
        c);
    match s.now_override with
    | None -> Message "NOW restored to the transaction clock"
    | Some c ->
      Message (Printf.sprintf "NOW set to %s" (Tip_core.Chronon.to_string c)))
  | Ast.Show_tables ->
    Rows
      { names = [ "table_name" ];
        rows =
          List.map
            (fun name -> [| Value.Str name |])
            (List.sort String.compare
               (Catalog.table_names t.catalog
               @ Catalog.partitioned_names t.catalog)) }
  | Ast.Describe { table } ->
    let schema =
      match Catalog.find_table t.catalog table with
      | Some tbl -> Table.schema tbl
      | None -> (
        match Catalog.find_partitioned t.catalog table with
        | Some pt -> pt.Partition.pt_schema
        | None -> db_error "no such table: %s" table)
    in
    Rows
      { names = [ "column"; "type"; "not_null"; "primary_key" ];
        rows =
          List.map
            (fun (c : Schema.column) ->
              [| Value.Str c.name;
                 Value.Str (Schema.type_name c.ty);
                 Value.Bool c.not_null;
                 Value.Bool c.primary_key |])
            (Schema.columns schema) }
  | Ast.Stats pattern ->
    let keep =
      match pattern with
      | None -> fun _ -> true
      | Some pat -> Expr_eval.like_match ~pattern:pat
    in
    Rows
      { names = [ "metric"; "kind"; "value" ];
        rows =
          List.filter_map
            (fun (s : Metrics.sample) ->
              if keep s.Metrics.s_name then
                Some
                  [| Value.Str s.Metrics.s_name;
                     Value.Str s.Metrics.s_kind;
                     Value.Int s.Metrics.s_value |]
              else None)
            (Metrics.samples ()) }
  | Ast.Analyze target ->
    let targets =
      match target with
      | Some name -> (
        match Catalog.find_table t.catalog name with
        | Some tbl -> [ tbl ]
        | None -> (
          match Catalog.find_partitioned t.catalog name with
          | Some pt ->
            List.map
              (fun (p : Partition.part) -> p.Partition.p_table)
              (Partition.all_parts pt)
          | None -> db_error "no such table: %s" name))
      | None ->
        List.filter_map
          (Catalog.find_table t.catalog)
          (Catalog.table_names t.catalog)
    in
    let analyzed_at = Tip_core.Chronon.to_string now in
    let total =
      List.fold_left
        (fun acc tbl ->
          let st = Table.analyze ~analyzed_at tbl in
          acc + st.Stats.st_rows)
        0 targets
    in
    Message
      (Printf.sprintf "ANALYZE complete (%d table%s, %d rows sampled)"
         (List.length targets)
         (if List.length targets = 1 then "" else "s")
         total)
  | Ast.Checkpoint ->
    if in_transaction ~session:s t then
      db_error "CHECKPOINT is not allowed inside a transaction";
    (match t.durability with
    | None -> Message "CHECKPOINT skipped (no durable storage attached)"
    | Some _ ->
      let n = checkpoint t in
      Message
        (Printf.sprintf "CHECKPOINT complete (%d log records truncated)" n))
  | Ast.Backup dir ->
    let origin = backup t ~dir in
    Message
      (Printf.sprintf
         "BACKUP complete: %s (generation %d, epoch %d, offset %d)" dir
         origin.Archive.o_gen origin.Archive.o_epoch origin.Archive.o_offset)
  | Ast.Promote ->
    (* Promotion needs the replication client (it owns the follower
       loop and the primary's stream position); the server installs
       a handler that intercepts PROMOTE before execution reaches
       here. An embedded database has nothing to promote. *)
    db_error "PROMOTE: this database is not a replica"

(* Layers the session's statement timeout (SET TIMEOUT) under whatever
   token the caller supplied: a fresh token when the caller is
   ungoverned, otherwise arm the caller's token unless it already
   carries a deadline of its own. *)
let effective_token s token =
  match s.timeout_ms with
  | None -> token
  | Some ms ->
    if Deadline.is_never token then Deadline.create ~timeout_ms:ms ()
    else begin
      Deadline.arm_timeout_if_unset token ms;
      token
    end

(* The durable commit boundary: whenever a statement leaves the
   database outside a transaction, its journal entries are appended to
   the WAL (and fsynced per the sync policy) before the result — or the
   exception — reaches the caller. A partially-executed failing
   statement is flushed too, so the log always mirrors memory. Two
   exceptions to "flush what happened":

   - An injected [Failpoint.Crash] stands for the process dying mid-I/O,
     so nothing may run after it.

   - A cancelled statement ([Deadline.Cancelled]: deadline, budget,
     Ctrl-C, drain) must leave no trace at all: the journal entries it
     added are undone and dropped, so neither memory, the WAL nor a
     later ROLLBACK sees them. The caller sees the raised reason; the
     WAL sees a clean statement prefix. *)
let exec_statement ?(token = Deadline.never) ?fingerprint ?session t ~params
    stmt =
  let s = session_of t session in
  let token = effective_token s token in
  (* The statement's rows-scanned tally comes from its own token, so a
     statement running beside others counts only its own scans. *)
  let token =
    if Tip_obs.Switch.on () && Deadline.is_never token then Deadline.create ()
    else token
  in
  let scanned0 = Deadline.rows_scanned token in
  let span = Span.start Span.Engine in
  (* Stops the engine span and folds the execution into the fingerprint
     store (tip_stat_statements): keyed by the caller's fingerprint of
     the statement's own tokens, or for a statement that never had
     text, of its pretty-printed AST. The store is skipped entirely
     while the switch is off, fingerprint included (benchmark E18). *)
  let note outcome ~rows_returned =
    Span.stop span;
    if Tip_obs.Switch.on () then
      Introspect.record
        ~query:
          (match fingerprint with
          | Some f -> f
          | None ->
            Tip_sql.Lexer.fingerprint (Tip_sql.Pretty.statement_to_string stmt))
        ~elapsed_ns:(Span.elapsed_ns span)
        ~rows_returned
        ~rows_scanned:(Deadline.rows_scanned token - scanned0)
        outcome
  in
  let finished result =
    note Introspect.Finished
      ~rows_returned:
        (match result with
        | Rows { rows; _ } -> List.length rows
        | Affected _ | Message _ -> 0);
    result
  in
  let cancelled reason =
    Metrics.incr m_cancelled;
    (match reason with
    | Deadline.Timeout -> Metrics.incr m_timed_out
    | _ -> ());
    Log.info (fun m ->
        m "statement cancelled (%s): %s"
          (Deadline.reason_label reason)
          (Tip_sql.Pretty.statement_to_string stmt));
    note Introspect.Cancelled ~rows_returned:0
  in
  let errored () = note Introspect.Errored ~rows_returned:0 in
  (* a simulated crash stands for process death: the span is only
     closed, so the session's open-span chain stays sound *)
  let crashed e =
    Span.stop span;
    raise e
  in
  let run () = exec_statement_raw t s ~token ~span ~params stmt in
  if read_only_statement stmt then begin
    (* The read path writes no field of [t]: no journal, no flush, no
       checkpoint. *)
    match run () with
    | result -> finished result
    | exception (Failpoint.Crash _ as e) -> crashed e
    | exception (Deadline.Cancelled reason as e) ->
      cancelled reason;
      raise e
    | exception e ->
      errored ();
      raise e
  end
  else begin
    let mark = s.journal in
    match run () with
    | result ->
      end_of_statement t s;
      maybe_auto_checkpoint t;
      finished result
    | exception (Failpoint.Crash _ as e) -> crashed e
    | exception (Deadline.Cancelled reason as e) ->
      s.journal <- revert_to mark s.journal;
      cancelled reason;
      raise e
    | exception e ->
      end_of_statement t s;
      errored ();
      raise e
  end

(* The statement store is keyed by the statement's own tokens, and only
   while the switch is on, so E18's on/off pairs measure the whole hook. *)
let fingerprint_of tokens =
  if Tip_obs.Switch.on () then Some (Tip_sql.Lexer.fingerprint_tokens tokens)
  else None

let exec ?token ?(params = []) ?session t sql =
  match Parser.parse_with_tokens sql with
  | stmt, tokens ->
    exec_statement ?token ?fingerprint:(fingerprint_of tokens) ?session t
      ~params stmt
  | exception Parser.Error msg -> db_error "%s" msg

(* Runs a ';'-separated script, returning the last result. *)
let exec_script ?token ?(params = []) ?session t sql =
  match Parser.parse_script sql with
  | [] -> Message "empty script"
  | stmts ->
    List.fold_left
      (fun _ (stmt, tokens) ->
        exec_statement ?token ?fingerprint:(fingerprint_of tokens) ?session t
          ~params stmt)
      (Message "") stmts
  | exception Parser.Error msg -> db_error "%s" msg

(* --- Durable open / close ---------------------------------------------------- *)

(* Opens (or creates) a durable database: recover snapshot + WAL tail,
   then immediately re-checkpoint so the recovered state becomes the new
   snapshot and the old (possibly torn) log is superseded by a fresh one
   of the next generation. Extension types must be registered before the
   call; install the blade on the returned database afterwards. *)
let open_durable ?(sync = Wal.Always) ?(checkpoint_every = 10_000) ?archive_dir
    ~dir () =
  let catalog, info = Recovery.recover ~dir in
  if info.Recovery.replayed_records > 0 || info.Recovery.stopped <> None then
    Log.info (fun m ->
        m "recovered %s: %d record(s) in %d batch(es) replayed%s" dir
          info.Recovery.replayed_records info.Recovery.replayed_batches
          (match info.Recovery.stopped with
          | Some reason -> Printf.sprintf " (log tail dropped: %s)" reason
          | None -> ""));
  let t = create ~catalog () in
  let epoch = info.Recovery.epoch in
  (* The re-checkpoint below supersedes the recovered log; with an
     archive attached, seal it first (under the generation its own
     frame carries — a stale log was already sealed at its checkpoint,
     so re-sealing is an idempotent overwrite with identical bytes). *)
  Option.iter
    (fun adir ->
      let wal_path = Recovery.wal_path ~dir in
      let scan = Wal.scan wal_path in
      Option.iter
        (fun gen -> Archive.seal ~dir:adir ~wal_path ~gen)
        scan.Wal.generation)
    archive_dir;
  let gen = info.Recovery.generation + 1 in
  Persist.save ~wal_gen:gen ~epoch ?asof:info.Recovery.last_commit_at catalog
    (Recovery.snapshot_path ~dir);
  let wal = Wal.create ~sync ~epoch ~gen (Recovery.wal_path ~dir) in
  t.durability <-
    Some
      { dir;
        wal;
        gen;
        epoch;
        archive_dir;
        checkpoint_every;
        last_commit_at = info.Recovery.last_commit_at };
  (* The durable open is where a process becomes a database server of
     some kind: attach the persistent event journal next to the WAL and
     turn the ASH sampler on. *)
  Tip_obs.Events.set_journal (Some (Filename.concat dir "events.log"));
  Tip_obs.Events.record ~kind:"recovery"
    ~detail:
      (Printf.sprintf "opened %s at gen %d epoch %d, replayed %d record(s)%s"
         dir gen epoch info.Recovery.replayed_records
         (match info.Recovery.stopped with
         | Some reason -> Printf.sprintf " (log tail dropped: %s)" reason
         | None -> ""));
  Tip_obs.Ash.start_sampler ();
  (t, info)

(* Detaches and closes the WAL without checkpointing — on-disk state is
   untouched, so this is safe even after a simulated crash. A graceful
   shutdown should [checkpoint] first. The one flush performed here:
   an Every_n policy's unsynced tail is fsynced so a clean close never
   abandons the up-to-n-1 commits the policy was still holding (extra
   durability can only extend the surviving prefix, so this stays safe
   after a simulated crash too; failures are swallowed because the fd
   may already be unusable then). *)
let close_durable t =
  match t.durability with
  | None -> ()
  | Some d ->
    t.durability <- None;
    (try if Wal.pending_sync d.wal then Wal.sync d.wal with _ -> ());
    Wal.close d.wal

(* --- Replication and high availability (primary side) ------------------------ *)

let epoch t = match t.durability with Some d -> d.epoch | None -> 0
let last_commit_at t = Option.bind t.durability (fun d -> d.last_commit_at)

(* Where a caught-up subscriber stands: current WAL generation, its
   end-of-log byte offset, and the promotion epoch. *)
let replication_state t =
  Option.map (fun d -> (d.gen, Wal.offset d.wal, d.epoch)) t.durability

let replication_wal_path t =
  Option.map (fun d -> Recovery.wal_path ~dir:d.dir) t.durability

(* Highest WAL generation sealed into the attached archive — what
   tip_stat_replication reports as [archive_generation]. [None] without
   an archive (or before the first seal). *)
let archive_generation t =
  match t.durability with
  | Some { archive_dir = Some adir; _ } -> (
    match Archive.sealed_generations adir with
    | [] -> None
    | gens -> Some (List.fold_left max 0 gens))
  | Some _ | None -> None

(* The bootstrap payload: snapshot text plus the (generation, offset,
   epoch) triple it is consistent with. Must run under the server's
   database lock so no statement commits between rendering the snapshot
   and reading the offset; refused inside an open transaction because
   the snapshot would leak uncommitted rows. *)
let replication_snapshot t =
  match t.durability with
  | None -> None
  | Some d ->
    if t.tx_holder <> None then busy "bootstrap a replica";
    Some
      ( d.gen,
        Persist.snapshot_string ~wal_gen:d.gen ~epoch:d.epoch
          ?asof:d.last_commit_at t.catalog,
        Wal.offset d.wal,
        d.epoch )

(* Promotion (replica side): turns a read-only replica into a writable
   primary rooted at [dir]. The replica's streamed state becomes a full
   snapshot stamped with generation [gen] and the bumped promotion
   epoch [epoch]; a fresh WAL opens under that epoch, so every
   generation frame the new primary ships fences subscribers still on
   the old epoch. Any previous durability attachment (an HA node's
   pre-demotion life) is closed, not sealed — its history was
   superseded by the re-bootstrap that made this node a replica. *)
let promote_replica ?(sync = Wal.Always) ?(checkpoint_every = 10_000)
    ?archive_dir ?asof t ~dir ~gen ~epoch () =
  (match t.durability with
  | Some d -> (
    t.durability <- None;
    try Wal.close d.wal with _ -> ())
  | None -> ());
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  Persist.save ~wal_gen:gen ~epoch ?asof t.catalog
    (Recovery.snapshot_path ~dir);
  let wal = Wal.create ~sync ~epoch ~gen (Recovery.wal_path ~dir) in
  t.durability <-
    Some { dir; wal; gen; epoch; archive_dir; checkpoint_every;
           last_commit_at = asof };
  t.read_only <- false;
  Tip_obs.Events.set_journal (Some (Filename.concat dir "events.log"));
  Tip_obs.Events.record ~kind:"promotion"
    ~detail:(Printf.sprintf "writable at %s, gen %d epoch %d" dir gen epoch);
  Tip_obs.Events.record ~kind:"epoch_change"
    ~detail:(Printf.sprintf "epoch now %d" epoch);
  Tip_obs.Ash.start_sampler ()

(* --- Result helpers ----------------------------------------------------------- *)

let rows_exn = function
  | Rows { rows; _ } -> rows
  | Affected _ | Message _ -> db_error "statement did not return rows"

let names_exn = function
  | Rows { names; _ } -> names
  | Affected _ | Message _ -> db_error "statement did not return rows"

let affected_exn = function
  | Affected n -> n
  | Rows _ | Message _ -> db_error "statement did not return a row count"

(* Renders a result as an aligned text table (psql-style). *)
let render_result result =
  match result with
  | Message m -> m
  | Affected n -> Printf.sprintf "(%d row%s affected)" n (if n = 1 then "" else "s")
  | Rows { names; rows } ->
    let cells =
      List.map (fun row -> Array.map Value.to_display_string row) rows
    in
    let ncols = List.length names in
    let widths = Array.of_list (List.map String.length names) in
    List.iter
      (fun row ->
        Array.iteri
          (fun i cell ->
            if i < ncols then widths.(i) <- Stdlib.max widths.(i) (String.length cell))
          row)
      cells;
    let buf = Buffer.create 256 in
    let pad s w = s ^ String.make (w - String.length s) ' ' in
    Buffer.add_string buf
      (String.concat " | " (List.mapi (fun i n -> pad n widths.(i)) names));
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (String.concat "-+-"
         (List.mapi (fun i _ -> String.make widths.(i) '-') names));
    Buffer.add_char buf '\n';
    List.iter
      (fun row ->
        Buffer.add_string buf
          (String.concat " | "
             (List.mapi (fun i _ -> pad row.(i) widths.(i)) names));
        Buffer.add_char buf '\n')
      cells;
    Buffer.add_string buf
      (Printf.sprintf "(%d row%s)" (List.length rows)
         (if List.length rows = 1 then "" else "s"));
    Buffer.contents buf

(* --- Built-in virtual tables (DESIGN.md §11) --------------------------------- *)

(* The engine's side of the introspection catalog: statement
   fingerprints, the metrics registry, and per-table access counters as
   relations. tip_stat_activity lives in the server, which owns the
   session table. Registered at module init so every database (embedded
   or served) resolves them. *)

let ms ns = Value.Float (float_of_int ns /. 1e6)

(* Typed temporal values for the observability vtabs (the server's
   tip_stat_activity included): the engine cannot depend on the blade,
   so it renders the text form and parses it through the registered
   type vtable, degrading gracefully when the blade is not installed. *)
let typed_value type_name text fallback =
  match Value.lookup_type type_name with
  | Some vt -> (
    try vt.Value.parse text with Value.Type_error _ -> fallback)
  | None -> fallback

let instant_value unix_time =
  let c = Tip_core.Chronon.of_unix_seconds (int_of_float unix_time) in
  typed_value "instant" (Tip_core.Chronon.to_string c) (Value.Date c)

(* An ASH sample's valid time: the closed chronon span of its tick, as
   a one-period ELEMENT — the same shape as any valid-time column, so
   the set-algebra [overlaps]/[contains] predicates (and the planner's
   sargable pruning) window it exactly like table history. Chronons are
   second-granular, so a 100ms tick renders as the degenerate period
   [t, t] — closed, hence still windowable. *)
let period_value ~from_s ~to_s =
  let c1 = Tip_core.Chronon.of_unix_seconds (int_of_float from_s) in
  let c2 = Tip_core.Chronon.of_unix_seconds (int_of_float (Float.max from_s to_s)) in
  let text =
    Printf.sprintf "{[%s, %s]}"
      (Tip_core.Chronon.to_string c1)
      (Tip_core.Chronon.to_string c2)
  in
  typed_value "element" text (Value.Str text)

let () =
  Vtab.register
    { Vtab.vt_name = "tip_stat_statements";
      vt_cols =
        [| "query"; "calls"; "total_ms"; "mean_ms"; "min_ms"; "max_ms";
           "p50_ms"; "p95_ms"; "p99_ms"; "rows_returned"; "rows_scanned";
           "errors"; "cancellations" |];
      vt_help = "statement fingerprints with latency and row aggregates";
      vt_rows =
        (fun _catalog ->
          List.map
            (fun (s : Introspect.stat) ->
              let pct q =
                Value.Float (Metrics.percentile_of_buckets s.buckets q /. 1e6)
              in
              [| Value.Str s.Introspect.query;
                 Value.Int s.calls;
                 ms s.total_ns;
                 (if s.calls = 0 then Value.Null
                  else ms (s.total_ns / s.calls));
                 ms s.min_ns;
                 ms s.max_ns;
                 pct 0.50;
                 pct 0.95;
                 pct 0.99;
                 Value.Int s.rows_returned;
                 Value.Int s.rows_scanned;
                 Value.Int s.errors;
                 Value.Int s.cancelled |])
            (Introspect.snapshot ())) };
  Vtab.register
    { Vtab.vt_name = "tip_stat_metrics";
      vt_cols =
        [| "name"; "kind"; "value"; "sum_ns"; "p50_ms"; "p95_ms"; "p99_ms" |];
      vt_help = "the process metrics registry, one row per metric";
      vt_rows =
        (fun _catalog ->
          List.map
            (fun (i : Metrics.info) ->
              let p sel =
                match i.Metrics.i_percentiles with
                | Some ps -> Value.Float (sel ps /. 1e6)
                | None -> Value.Null
              in
              [| Value.Str i.Metrics.i_name;
                 Value.Str i.i_kind;
                 Value.Int i.i_value;
                 (match i.i_sum_ns with
                 | Some s -> Value.Int s
                 | None -> Value.Null);
                 p (fun (a, _, _) -> a);
                 p (fun (_, b, _) -> b);
                 p (fun (_, _, c) -> c) |])
            (Metrics.infos ())) };
  Vtab.register
    { Vtab.vt_name = "tip_stat_tables";
      vt_cols =
        [| "table_name"; "row_count"; "index_count"; "scans"; "scan_rows";
           "writes"; "last_analyzed"; "histogram_buckets" |];
      vt_help = "per-table live rows, access counters and ANALYZE state";
      vt_rows =
        (fun catalog ->
          List.filter_map
            (fun name ->
              match Catalog.find_table catalog name with
              | None -> None
              | Some tbl ->
                let analyzed, buckets =
                  match Table.stats tbl with
                  | Some st ->
                    ( Value.Str st.Stats.st_analyzed_at,
                      Value.Int st.Stats.st_buckets )
                  | None -> (Value.Null, Value.Null)
                in
                Some
                  [| Value.Str name;
                     Value.Int (Table.row_count tbl);
                     Value.Int (List.length (Table.indexes tbl));
                     Value.Int (Table.scan_count tbl);
                     Value.Int (Table.scan_row_count tbl);
                     Value.Int (Table.write_count tbl);
                     analyzed;
                     buckets |])
            (Catalog.table_names catalog)) };
  Vtab.register
    { Vtab.vt_name = "tip_stat_partitions";
      vt_cols =
        [| "table_name"; "partition"; "from_bound"; "to_bound"; "is_default";
           "row_count"; "max_end"; "kept_scans"; "pruned_scans" |];
      vt_help =
        "partitions of range-partitioned tables: bounds, end watermark and \
         pruning counters";
      vt_rows =
        (fun catalog ->
          List.concat_map
            (fun parent ->
              match Catalog.find_partitioned catalog parent with
              | None -> []
              | Some pt ->
                List.map
                  (fun (p : Partition.part) ->
                    let wm = Atomic.get p.Partition.p_max_end in
                    [| Value.Str parent;
                       Value.Str p.Partition.p_name;
                       (if p.Partition.p_default then Value.Null
                        else Value.Str (Partition.bound_to_string p.Partition.p_from));
                       (if p.Partition.p_default then Value.Null
                        else Value.Str (Partition.bound_to_string p.Partition.p_to));
                       Value.Bool p.Partition.p_default;
                       Value.Int (Table.row_count p.Partition.p_table);
                       (if wm = min_int then Value.Null
                        else Value.Str (Partition.bound_to_string wm));
                       Value.Int (Atomic.get p.Partition.p_scanned);
                       Value.Int (Atomic.get p.Partition.p_pruned) |])
                  (Partition.all_parts pt))
            (Catalog.partitioned_names catalog)) };
  Vtab.register
    { Vtab.vt_name = "tip_stat_waits";
      vt_cols = [| "wait_class"; "waits"; "total_wait_ms" |];
      vt_help =
        "cumulative wait-event profile: completed waits and total waited \
         time per class";
      vt_rows =
        (fun _catalog ->
          List.map
            (fun (cls, count, total_ns) ->
              [| Value.Str (Span.label cls); Value.Int count; ms total_ns |])
            (Span.wait_stats ())) };
  Vtab.register
    { Vtab.vt_name = "tip_stat_ash";
      vt_cols =
        [| "sample_seq"; "at"; "session_id"; "kind"; "query"; "wait_class";
           "valid" |];
      vt_help =
        "active session history: periodic samples of every session's \
         current statement and wait state, each with a valid-time PERIOD";
      vt_rows =
        (fun _catalog ->
          List.map
            (fun (sa : Tip_obs.Ash.sample) ->
              [| Value.Int sa.sa_seq;
                 instant_value sa.sa_at;
                 Value.Int sa.sa_session;
                 Value.Str sa.sa_kind;
                 (match sa.sa_query with
                 | Some q -> Value.Str q
                 | None -> Value.Null);
                 Value.Str sa.sa_state;
                 period_value ~from_s:sa.sa_at
                   ~to_s:(sa.sa_at +. (float_of_int sa.sa_interval_ms /. 1000.)) |])
            (Tip_obs.Ash.samples ())) };
  Vtab.register
    { Vtab.vt_name = "tip_stat_events";
      vt_cols = [| "seq"; "at"; "kind"; "detail" |];
      vt_help =
        "the structured event journal: checkpoints, backups, recovery, \
         promotions, epoch changes";
      vt_rows =
        (fun _catalog ->
          List.map
            (fun (ev : Tip_obs.Events.event) ->
              [| Value.Int ev.ev_seq;
                 instant_value ev.ev_at;
                 Value.Str ev.ev_kind;
                 Value.Str ev.ev_detail |])
            (Tip_obs.Events.events ())) }
