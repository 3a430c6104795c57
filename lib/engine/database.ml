(* The database facade: bind NOW, dispatch each statement to the
   function for its family, and hold the statement boundary. The NOW,
   session and concurrency rules are stated in database.mli; row changes
   live in {!Dml}, DDL in {!Ddl}, the journal and commit boundary in
   {!Journal}, the snapshot and log in {!Durable}. *)

open Tip_storage
module Ast = Tip_sql.Ast
module Parser = Tip_sql.Parser
module Metrics = Tip_obs.Metrics
module Span = Tip_obs.Span
module Introspect = Tip_obs.Introspect
module Deadline = Tip_core.Deadline

exception Error = Dml.Error

let db_error = Dml.db_error

let error_message = function
  | Error m | Parser.Error m | Planner.Plan_error m | Expr_eval.Eval_error m
  | Value.Type_error m | Table.Constraint_violation m | Catalog.Catalog_error m
  | Schema.Schema_error m ->
    Some m
  | _ -> None

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

type session = Journal.session

type t = {
  catalog : Catalog.t;
  ext : Extension.t;
  own : session; (* the session of callers that name none *)
  mutable tx_holder : session option;
      (* the one session with an open transaction; every other session's
         statements are refused BUSY until it ends *)
  mutable durability : Durable.t option;
  mutable read_only : bool;
      (* a read replica: every mutating statement is refused with a
         typed READ_ONLY error; the replication stream bypasses the
         statement layer entirely (Wal.apply against the catalog) *)
}

type result =
  | Rows of { names : string list; rows : Value.t array list }
  | Affected of int
  | Message of string

let create ?catalog () =
  let ext = Extension.create () in
  Builtins.install ext;
  { catalog = (match catalog with Some c -> c | None -> Catalog.create ());
    ext;
    own = Journal.session ~now:None ~timeout_ms:None;
    tx_holder = None;
    durability = None;
    read_only = false }

let session ?timeout_ms t =
  Journal.session ~now:t.own.now_override
    ~timeout_ms:(if timeout_ms = None then t.own.timeout_ms else timeout_ms)

let catalog t = t.catalog
let extension t = t.ext
let durability_dir t = Option.map (fun d -> d.Durable.dir) t.durability
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

let rollback t s =
  Journal.rollback s;
  t.tx_holder <- None

let end_of_statement t s =
  if not (in_transaction ~session:s t) then
    Journal.end_of_statement t.durability s

(* Rolls back the session's open transaction, if any; its DDL records
   still reach the WAL. *)
let close_session t s =
  if in_transaction ~session:s t then begin
    rollback t s;
    end_of_statement t s
  end

(* Checkpoints, backups and replica bootstraps are refused while a
   transaction is open: the snapshot would hold its uncommitted rows. *)
let quiesced t what =
  if t.tx_holder <> None then
    db_error "BUSY: cannot %s while a transaction is open" what

let checkpoint t =
  match t.durability with
  | None -> 0
  | Some d ->
    quiesced t "checkpoint";
    Durable.checkpoint d t.catalog

let maybe_auto_checkpoint t =
  match t.durability with
  | Some d when t.tx_holder = None && Durable.checkpoint_due d ->
    Log.info (fun m ->
        m "auto checkpoint (%d log records)" (Wal.record_count d.wal));
    ignore (checkpoint t)
  | Some _ | None -> ()

let backup t ~dir =
  match t.durability with
  | None -> db_error "BACKUP requires a durable database (--durability)"
  | Some d ->
    quiesced t "render a backup";
    Durable.backup d t.catalog ~dir

let replication_snapshot t =
  Option.map
    (fun d ->
      quiesced t "bootstrap a replica";
      let o, text = Durable.snapshot d t.catalog in
      (o.Archive.o_gen, text, o.Archive.o_offset, o.Archive.o_epoch))
    t.durability

(* --- Queries ----------------------------------------------------------------- *)

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
   with actual rows / time. The whole run shares the statement's one
   NOW, carried in [ectx] (DESIGN.md §9). *)
let explain_analyze t ectx ~span target =
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
  Planner.explain_analyze
    ~now:(Tip_core.Chronon.to_string ectx.Expr_eval.now)
    ~rows:(List.length rows) ~plan_ns:(span_ns Span.Plan)
    ~exec_ns:(span_ns Span.Execute) plan

let query t ectx ~span = function
  | Ast.Explain { analyze = false; target } ->
    Message (Planner.explain (fst (plan_query t ectx ~what:"EXPLAIN" target)))
  | Ast.Explain { analyze = true; target } ->
    Message (explain_analyze t ectx ~span target)
  | query ->
    let plan, names = plan_query t ectx ~what:"EXPLAIN" query in
    Rows { names = Array.to_list names; rows = Executor.collect ectx plan }

(* --- Transaction control ------------------------------------------------------ *)

let transaction t s stmt =
  let open_tx () =
    if not (in_transaction ~session:s t) then
      db_error "no transaction in progress"
  in
  let to_savepoint op what name =
    open_tx ();
    let name = String.lowercase_ascii name in
    if not (op s name) then db_error "no such savepoint: %s" name;
    Message (Printf.sprintf "%s %s" what name)
  in
  match stmt with
  | Ast.Begin_tx ->
    if t.tx_holder <> None then db_error "already in a transaction";
    t.tx_holder <- Some s;
    Message "BEGIN"
  | Ast.Commit_tx ->
    open_tx ();
    t.tx_holder <- None;
    Message "COMMIT"
  | Ast.Rollback_tx ->
    open_tx ();
    rollback t s;
    Message "ROLLBACK"
  | Ast.Savepoint name ->
    if not (in_transaction ~session:s t) then
      db_error "SAVEPOINT requires a transaction";
    Journal.savepoint s (String.lowercase_ascii name);
    Message (Printf.sprintf "SAVEPOINT %s" name)
  | Ast.Rollback_to name -> to_savepoint Journal.rollback_to "ROLLBACK TO" name
  | Ast.Release_savepoint name -> to_savepoint Journal.release "RELEASE" name
  | _ -> invalid_arg "Database.transaction"

(* --- Session settings --------------------------------------------------------- *)

(* DEFAULT restores the value the session started with. *)
let setting (cx : Dml.cx) stmt =
  let s = cx.session and ectx = cx.ectx in
  match stmt with
  | Ast.Set_timeout ms -> (
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
    s.now_override <-
      (match e with
      | None -> s.now_default
      | Some e ->
        let v = Dml.eval_standalone cx.catalog ectx e in
        let c = Extension.to_chronon ectx.ext ~now:ectx.now v in
        if c = None then
          db_error "SET NOW expects a time value, got %s" (Value.type_name v);
        c);
    match s.now_override with
    | None -> Message "NOW restored to the transaction clock"
    | Some c ->
      Message (Printf.sprintf "NOW set to %s" (Tip_core.Chronon.to_string c)))
  | _ -> invalid_arg "Database.setting"

(* --- Catalog statements ------------------------------------------------------- *)

(* SHOW TABLES, DESCRIBE, STATS, ANALYZE and COPY TO: they read the
   catalog, or write only planner statistics or an output file. *)
let catalog_statement (cx : Dml.cx) = function
  | Ast.Show_tables ->
    Rows
      { names = [ "table_name" ];
        rows =
          List.map
            (fun name -> [| Value.Str name |])
            (List.sort String.compare
               (Catalog.table_names cx.catalog
               @ Catalog.partitioned_names cx.catalog))
      }
  | Ast.Describe { table } ->
    Rows
      { names = [ "column"; "type"; "not_null"; "primary_key" ];
        rows =
          List.map
            (fun (c : Schema.column) ->
              [| Value.Str c.name;
                 Value.Str (Schema.type_name c.ty);
                 Value.Bool c.not_null;
                 Value.Bool c.primary_key |])
            (Schema.columns (Dml.target cx table).Catalog.tg_schema) }
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
  | Ast.Analyze name ->
    let tables =
      match name with
      | Some name -> (Dml.target cx name).Catalog.tg_tables
      | None ->
        List.filter_map
          (Catalog.find_table cx.catalog)
          (Catalog.table_names cx.catalog)
    in
    let analyzed_at = Tip_core.Chronon.to_string cx.ectx.Expr_eval.now in
    let total =
      List.fold_left
        (fun acc tbl -> acc + (Table.analyze ~analyzed_at tbl).Stats.st_rows)
        0 tables
    in
    let n = List.length tables in
    Message
      (Printf.sprintf "ANALYZE complete (%d table%s, %d rows sampled)" n
         (if n = 1 then "" else "s")
         total)
  | Ast.Copy_to { table; file } ->
    let table =
      match Dml.target cx table with
      | { Catalog.tg_partitioned = Some _; _ } ->
        db_error
          "COPY TO a partitioned table is not supported; COPY each partition \
           child (%s__<partition>)"
          table
      | { Catalog.tg_tables; _ } -> List.hd tg_tables
    in
    let n =
      try Csv.export table file
      with Sys_error msg | Csv.Csv_error msg -> db_error "COPY: %s" msg
    in
    Message (Printf.sprintf "COPY %d rows to %s" n file)
  | _ -> invalid_arg "Database.catalog_statement"

(* --- Durability statements ---------------------------------------------------- *)

let durability_statement t s = function
  | Ast.Checkpoint -> (
    if in_transaction ~session:s t then
      db_error "CHECKPOINT is not allowed inside a transaction";
    match t.durability with
    | None -> Message "CHECKPOINT skipped (no durable storage attached)"
    | Some _ ->
      Message
        (Printf.sprintf "CHECKPOINT complete (%d log records truncated)"
           (checkpoint t)))
  | Ast.Backup dir ->
    let origin = backup t ~dir in
    Message
      (Printf.sprintf
         "BACKUP complete: %s (generation %d, epoch %d, offset %d)" dir
         origin.Archive.o_gen origin.Archive.o_epoch origin.Archive.o_offset)
  | Ast.Promote ->
    (* Promotion needs the replication client (it owns the follower
       loop and the primary's stream position); the server installs a
       handler that intercepts PROMOTE before execution reaches here.
       An embedded database has nothing to promote. *)
    db_error "PROMOTE: this database is not a replica"
  | _ -> invalid_arg "Database.durability_statement"

(* --- Dispatch ------------------------------------------------------------------ *)

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

let dispatch t s ~token ~span ~params stmt =
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
  let now = Journal.now s in
  Span.annotate (Span.root span) "now" (Span.Chronon now);
  Log.debug (fun m ->
      m "executing (NOW = %s): %s"
        (Tip_core.Chronon.to_string now)
        (Tip_sql.Pretty.statement_to_string stmt));
  let ectx =
    { Expr_eval.now;
      params = List.map (fun (k, v) -> (String.lowercase_ascii k, v)) params;
      ext = t.ext;
      token;
      poll_tick = 0 }
  in
  let cx =
    { Dml.catalog = t.catalog; session = s; redo = t.durability <> None; ectx }
  in
  match stmt with
  | Ast.Select _ | Ast.Select_compound _ | Ast.Explain _ ->
    query t ectx ~span stmt
  | Ast.Insert _ | Ast.Update _ | Ast.Delete _ | Ast.Copy_from _ ->
    Affected (Dml.exec cx stmt)
  | Ast.Create_table _ | Ast.Create_table_as _ | Ast.Drop_table _
  | Ast.Create_index _ | Ast.Drop_index _ ->
    Message (Ddl.exec cx stmt)
  | Ast.Begin_tx | Ast.Commit_tx | Ast.Rollback_tx | Ast.Savepoint _
  | Ast.Rollback_to _ | Ast.Release_savepoint _ ->
    transaction t s stmt
  | Ast.Set_timeout _ | Ast.Set_now _ -> setting cx stmt
  | Ast.Show_tables | Ast.Describe _ | Ast.Stats _ | Ast.Analyze _
  | Ast.Copy_to _ ->
    catalog_statement cx stmt
  | Ast.Checkpoint | Ast.Backup _ | Ast.Promote -> durability_statement t s stmt

(* Layers the session's statement timeout (SET TIMEOUT) under whatever
   token the caller supplied: a fresh token when the caller is
   ungoverned, otherwise arm the caller's token unless it already
   carries a deadline of its own. *)
let effective_token (s : session) token =
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
  let run () = dispatch t s ~token ~span ~params stmt in
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
      s.journal <- Journal.revert_to mark s.journal;
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

(* --- Durable open / close, replication and promotion ------------------------- *)

(* Extension types must be registered before the call; install the
   blade on the returned database afterwards. *)
let open_durable ?sync ?checkpoint_every ?archive_dir ~dir () =
  let catalog, info, d =
    Durable.recover ?sync ?checkpoint_every ?archive_dir ~dir ()
  in
  let t = create ~catalog () in
  t.durability <- Some d;
  (t, info)

let close_durable t =
  Option.iter
    (fun d ->
      t.durability <- None;
      Durable.close d)
    t.durability

let epoch t = match t.durability with Some d -> d.epoch | None -> 0
let last_commit_at t = Option.bind t.durability (fun d -> d.last_commit_at)

let replication_state t =
  Option.map (fun d -> (d.Durable.gen, Wal.offset d.wal, d.epoch)) t.durability

let replication_wal_path t =
  Option.map (fun d -> Recovery.wal_path ~dir:d.Durable.dir) t.durability

let archive_generation t = Option.bind t.durability Durable.archive_generation

(* Any previous attachment (an HA node's pre-demotion life) is closed,
   not sealed: its history was superseded by the re-bootstrap that made
   this node a replica. *)
let promote_replica ?sync ?checkpoint_every ?archive_dir ?asof t ~dir ~gen
    ~epoch () =
  close_durable t;
  t.durability <-
    Some
      (Durable.promote ?sync ?checkpoint_every ?archive_dir ?asof t.catalog ~dir
         ~gen ~epoch);
  t.read_only <- false

let instant_value = Stat_tables.instant_value

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

