(* The TIP database server: accepts client connections over TCP (or any
   stream socket) and executes their statements against one shared
   embedded database.

   One thread per client, spread over session domains; each client owns
   one engine session (its transaction, NOW and statement timeout).
   Statements take the database lock shared when they only read
   (SELECT, EXPLAIN, SET NOW/TIMEOUT) and exclusive otherwise, so reads run side by side
   while every write still has the database to itself (DESIGN.md §17).
   A session that opens a transaction keeps the lock exclusive from
   BEGIN to COMMIT or ROLLBACK; ending the session (disconnect, idle
   drop, drain) rolls the transaction back and releases the lock.
   Parameter bindings (B lines) accumulate per session and apply to the
   next Q.

   Resource governance (DESIGN.md §10): every statement runs under a
   Deadline token armed with its session's statement timeout (which
   starts at --statement-timeout-ms), held in the session's row of the
   process's one session table (Tip_obs.Span) so a drain can cancel
   everything currently executing. Admission control
   caps concurrent sessions: beyond --max-sessions, a new connection is
   answered E OVERLOADED and closed instead of queueing behind the db
   lock forever. *)

module Db = Tip_engine.Database
module Metrics = Tip_obs.Metrics
module Span = Tip_obs.Span
module Events = Tip_obs.Events
module Deadline = Tip_core.Deadline
module Ast = Tip_sql.Ast
module Domains = Tip_engine.Domains

let log_src = Logs.Src.create "tip.server" ~doc:"TIP network server"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_sessions =
  Metrics.counter "server_sessions_total" ~help:"Client sessions accepted"

let g_sessions_active =
  Metrics.gauge "server_sessions_active" ~help:"Client sessions currently open"

let g_pool_size =
  Metrics.gauge "pool_size" ~help:"Domains the server spreads its sessions over"

let m_errors =
  Metrics.counter "server_errors_total" ~help:"Statements answered with an E response"

let m_sessions_rejected =
  Metrics.counter "server_sessions_rejected_total"
    ~help:"Connections refused with E OVERLOADED by admission control"

let m_idle_drops =
  Metrics.counter "server_idle_drops_total"
    ~help:"Sessions closed with E IDLE_TIMEOUT after staying silent"

let g_drain_ms =
  Metrics.gauge "server_drain_seconds"
    ~help:"Duration of the last graceful drain, milliseconds"

let g_replicas =
  Metrics.gauge "repl_subscribers_active"
    ~help:"Replication subscribers currently streaming"

let m_repl_chunks =
  Metrics.counter "repl_chunks_sent_total"
    ~help:"WAL chunks shipped to replication subscribers"

let m_repl_bytes =
  Metrics.counter "repl_bytes_sent_total"
    ~help:"WAL bytes shipped to replication subscribers"

let m_repl_bootstraps =
  Metrics.counter "repl_bootstraps_total"
    ~help:"Snapshot bootstraps served to replicas"

let m_fenced =
  Metrics.counter "ha_fenced_total"
    ~help:"Stale-epoch replication subscriptions rejected (split-brain fence)"

let m_promotions =
  Metrics.counter "ha_promotions_total"
    ~help:"Replica promotions performed by this server"

(* A client session: its engine session (only its thread uses it) and
   its row in the process's one session table, which tip_stat_activity,
   the ASH sampler and [drain] read. *)
type session = { engine : Db.session; live : Span.session }

(* Live subscriber row for tip_stat_replication (primary side). The
   streaming thread writes sent/state; the ack-reader thread writes
   acked fields; the vtab snapshot reads under [replicas_lock]. *)
type replica_info = {
  ri_id : int;
  ri_addr : string;
  mutable ri_state : string; (* "streaming" | "caught_up" *)
  mutable ri_gen : int;
  ri_epoch : int; (* the subscription's promotion epoch *)
  mutable ri_sent_offset : int; (* WAL bytes shipped so far *)
  mutable ri_acked_offset : int; (* subscriber's confirmed replay position *)
  mutable ri_acked_commits : int;
  mutable ri_last_ack : float; (* unix time of the last ack *)
}

type t = {
  id : int; (* owner tag of this server's rows in the session table *)
  db : Db.t;
  db_lock : Rwlock.t;
  listener : Unix.file_descr;
  idle_timeout : float option;
  slow_ms : float option;
  statement_timeout_ms : int option;
  max_sessions : int option;
  active : int Atomic.t;
  session_ids : int Atomic.t;
  replicas : (int, replica_info) Hashtbl.t; (* subscriber id -> live row *)
  replicas_lock : Mutex.t;
  replica_ids : int Atomic.t;
  mutable staleness_probe : (unit -> float) option;
      (* installed by the replication client on a replica server so L
         probes (and tip_stat_replication) can report how far behind
         the primary this server's reads are *)
  mutable promote_handler : (unit -> (int * int, string) result) option;
      (* installed on a served replica; PROMOTE runs it (outside the db
         lock — it owns its own locking) and it returns the new
         (generation, epoch) or a typed error *)
  mutable draining : bool;
  mutable running : bool;
}

let result_to_response : Db.result -> Protocol.response = function
  | Db.Rows { names; rows } -> Protocol.Rows { names; rows }
  | Db.Affected n -> Protocol.Affected n
  | Db.Message m -> Protocol.Message m

let response_rows = function
  | Protocol.Rows { rows; _ } -> List.length rows
  | Protocol.Affected n -> n
  | Protocol.Message _ | Protocol.Error _ -> 0

(* --- Sessions in the one session table (tip_stat_activity) ------------- *)

(* Runs on the session's own thread, so the row binds to it. *)
let register_session t fd addr =
  { engine = Db.session ?timeout_ms:t.statement_timeout_ms t.db;
    live =
      Span.register ~owner:t.id ~addr ~fd
        ~id:(Atomic.fetch_and_add t.session_ids 1)
        ~kind:"client" () }

(* This server's client rows, by session id. *)
let own_sessions t =
  List.filter (fun (s : Span.session) -> s.owner = t.id) (Span.sessions ())
  |> List.sort (fun (a : Span.session) b -> Int.compare a.id b.id)

let activity_rows t () =
  let module Value = Tip_storage.Value in
  List.map
    (fun (s : Span.session) ->
      let a = s.activity in
      [| Value.Int s.id;
         Value.Str s.addr;
         Value.Str a.state;
         (match a.query with Some q -> Value.Str q | None -> Value.Null);
         Db.instant_value a.since;
         (match Option.map Deadline.remaining_ms a.token with
         | Some (Some ms) -> Value.Float ms
         | Some None | None -> Value.Null) |])
    (own_sessions t)

(* --- Replication stream (primary side) ---------------------------------- *)

module Failpoint = Tip_storage.Failpoint

let with_replicas_lock t f = Mutex.protect t.replicas_lock f

(* Acquiring the database lock, in either mode, is THE DbLock wait —
   the number the MVCC roadmap item exists to drive down. Only the
   acquisition is attributed; time spent holding the lock lands on the
   session's other wait classes (or Cpu). [shared] is for paths that
   only read: they run beside each other, never beside a writer.
   A client [session] inside a transaction already holds the lock
   exclusive and takes nothing; one that leaves [f] inside a
   transaction (BEGIN) keeps the lock, one that leaves it outside
   (COMMIT, ROLLBACK) gives it back. *)
let with_db_lock ?(shared = false) ?session t f =
  let in_tx () =
    match session with
    | Some s -> Db.in_transaction ~session:s.engine t.db
    | None -> false
  in
  let held = in_tx () in
  let shared = shared && not held in
  if not held then
    Span.with_ Span.DbLock (fun () ->
        if shared then Rwlock.lock_shared t.db_lock else Rwlock.lock t.db_lock);
  Fun.protect
    ~finally:(fun () ->
      if not (in_tx ()) then
        if shared then Rwlock.unlock_shared t.db_lock
        else Rwlock.unlock t.db_lock)
    f

(* tip_stat_replication rows, primary side: one per live subscriber.
   Runs inside a statement, which already holds the db lock (shared or
   exclusive, either keeps writers out), so the WAL end offset is read
   directly. *)
let replication_rows t () =
  let module Value = Tip_storage.Value in
  let wal_end =
    match Db.replication_state t.db with Some (_, off, _) -> off | None -> 0
  in
  let archive_gen =
    match Db.archive_generation t.db with
    | Some g -> Value.Int g
    | None -> Value.Null
  in
  let now = Unix.gettimeofday () in
  with_replicas_lock t (fun () ->
      Hashtbl.fold
        (fun _ ri acc ->
          let lag_bytes = Stdlib.max 0 (wal_end - ri.ri_acked_offset) in
          [| Value.Str ri.ri_addr;
             Value.Str "replica";
             Value.Str ri.ri_state;
             Value.Int ri.ri_gen;
             Value.Int wal_end;
             Value.Int ri.ri_acked_offset;
             Value.Int lag_bytes;
             Value.Int ri.ri_acked_commits;
             (if lag_bytes = 0 then Value.Float 0.
              else Value.Float (now -. ri.ri_last_ack));
             Value.Int ri.ri_epoch;
             archive_gen |]
          :: acc)
        t.replicas [])

let rec read_some fd buf off len =
  match Unix.read fd buf off len with
  | 0 -> off
  | n -> if n = len then off + n else read_some fd buf (off + n) (len - n)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_some fd buf off len

(* Serves one [S <gen> <offset>] subscription until the link dies, the
   generation changes, or the server drains. The session socket becomes
   a one-way WAL byte stream (chunks + keepalives) with a companion
   thread blocking-reading the subscriber's acks; every outgoing chunk
   passes through the [repl.send] failpoint so tests can drop, delay,
   truncate or bit-flip it in flight.

   The WAL file is read under the db lock, shared: a checkpoint — the
   only truncation — holds that lock exclusive for its whole duration,
   so a read that started under generation g cannot observe a truncated
   file. *)
let handle_replication_stream t fd ic oc ~addr ~gen ~offset ~epoch =
  let send_error msg =
    try
      Protocol.write_response oc (Protocol.Error msg);
      flush oc
    with Sys_error _ | Unix.Unix_error _ -> ()
  in
  (* The split-brain fence (DESIGN.md §15): a subscription whose
     promotion epoch does not match ours is answered with a typed
     error before a single byte is shipped. A stale subscriber (an old
     primary rejoining after a failover it missed) must re-bootstrap —
     its history past the promotion point may have diverged; a NEWER
     subscriber epoch means this server itself is the stale one and
     the client should go find the real primary. *)
  let fence =
    with_db_lock ~shared:true t (fun () ->
        let own = Db.epoch t.db in
        if epoch <> own then Some own else None)
  in
  match fence with
  | Some own ->
    Metrics.incr m_fenced;
    Tip_obs.Events.record ~kind:"fenced"
      ~detail:
        (Printf.sprintf "subscriber %s at epoch %d fenced (our epoch %d)" addr
           epoch own);
    Log.warn (fun m ->
        m "fencing subscriber %s: epoch %d vs our %d" addr epoch own);
    send_error
      (Printf.sprintf
         "STALE_EPOCH: subscription epoch %d, primary epoch %d; a promotion \
          happened — bootstrap a fresh snapshot"
         epoch own)
  | None -> (
  match Db.replication_wal_path t.db with
  | None -> send_error "REPLICATION: this server has no durable WAL to ship"
  | Some wal_path ->
    (* The stream writes; its reads are sparse acks that can be minutes
       apart, so the session idle-read timeout must not apply. *)
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0. with _ -> ());
    let ri =
      { ri_id = Atomic.fetch_and_add t.replica_ids 1;
        ri_addr = addr;
        ri_state = "streaming";
        ri_gen = gen;
        ri_epoch = epoch;
        ri_sent_offset = offset;
        ri_acked_offset = offset;
        ri_acked_commits = 0;
        ri_last_ack = Unix.gettimeofday () }
    in
    with_replicas_lock t (fun () -> Hashtbl.replace t.replicas ri.ri_id ri);
    Metrics.gauge_add g_replicas 1;
    Log.info (fun m ->
        m "replication subscriber %s: gen %d from offset %d" addr gen offset);
    (* Ack reader: owns all reads on this socket from here on. Exits
       when the peer closes (or the session teardown closes the fd). *)
    ignore
      (Events.spawn ~name:"replication ack reader" (fun () ->
           let rec go () =
             match input_line ic with
             | exception _ -> ()
             | line -> (
               match (try Protocol.decode_request line with _ -> None) with
               | Some (Protocol.Ack { offset; commits }) ->
                 with_replicas_lock t (fun () ->
                     ri.ri_acked_offset <- Stdlib.max ri.ri_acked_offset offset;
                     ri.ri_acked_commits <- ri.ri_acked_commits + commits;
                     ri.ri_last_ack <- Unix.gettimeofday ());
                 go ()
               | Some Protocol.Quit -> ()
               | _ -> go ())
           in
           go ()));
    let wal_fd =
      try Some (Unix.openfile wal_path [ Unix.O_RDONLY ] 0)
      with Unix.Unix_error _ -> None
    in
    let send_chunk payload =
      match Failpoint.stream ~site:"repl.send" payload with
      | None, _ -> `Close (* dropped: sever so the resume path engages *)
      | Some p, kill -> (
        match
          Protocol.write_chunk oc p;
          flush oc
        with
        | () ->
          Metrics.incr m_repl_chunks;
          Metrics.add m_repl_bytes (String.length p);
          if kill then `Close else `Sent
        | exception (Sys_error _ | Unix.Unix_error _) -> `Close)
    in
    let last_send = ref (Unix.gettimeofday ()) in
    let rec stream () =
      if t.draining then
        send_error (Deadline.reason_message Deadline.Shutdown)
      else begin
        let status =
          with_db_lock ~shared:true t (fun () ->
              match Db.replication_state t.db with
              | None -> `Error "REPLICATION: durable storage detached"
              | Some (cur_gen, wal_end, _) ->
                if cur_gen <> ri.ri_gen then
                  `Error
                    (Printf.sprintf
                       "GEN_CHANGED: WAL generation is now %d (subscribed at \
                        %d); bootstrap a fresh snapshot"
                       cur_gen ri.ri_gen)
                else if ri.ri_sent_offset > wal_end then
                  `Error
                    (Printf.sprintf
                       "GEN_CHANGED: offset %d beyond end of log %d; bootstrap \
                        a fresh snapshot"
                       ri.ri_sent_offset wal_end)
                else if ri.ri_sent_offset = wal_end then `Idle wal_end
                else begin
                  match wal_fd with
                  | None -> `Error "REPLICATION: cannot open the WAL file"
                  | Some wfd ->
                    let want = Stdlib.min 65536 (wal_end - ri.ri_sent_offset) in
                    ignore (Unix.lseek wfd ri.ri_sent_offset Unix.SEEK_SET);
                    let buf = Bytes.create want in
                    let got = read_some wfd buf 0 want in
                    if got = 0 then `Idle wal_end
                    else `Data (Bytes.sub_string buf 0 got)
                end)
        in
        match status with
        | `Error msg -> send_error msg
        | `Idle wal_end ->
          with_replicas_lock t (fun () -> ri.ri_state <- "caught_up");
          let now = Unix.gettimeofday () in
          if now -. !last_send >= 0.5 then begin
            match
              Protocol.write_response oc
                (Protocol.Message (Printf.sprintf "keepalive %d" wal_end));
              flush oc
            with
            | () ->
              last_send := now;
              Thread.delay 0.02;
              stream ()
            | exception (Sys_error _ | Unix.Unix_error _) -> ()
          end
          else begin
            Thread.delay 0.02;
            stream ()
          end
        | `Data payload -> (
          with_replicas_lock t (fun () -> ri.ri_state <- "streaming");
          match send_chunk payload with
          | `Close -> ()
          | `Sent ->
            ri.ri_sent_offset <- ri.ri_sent_offset + String.length payload;
            last_send := Unix.gettimeofday ();
            stream ())
      end
    in
    Fun.protect
      ~finally:(fun () ->
        (match wal_fd with
        | Some wfd -> ( try Unix.close wfd with Unix.Unix_error _ -> ())
        | None -> ());
        with_replicas_lock t (fun () -> Hashtbl.remove t.replicas ri.ri_id);
        Metrics.gauge_add g_replicas (-1);
        Log.info (fun m -> m "replication subscriber %s gone" addr))
      stream)

(* Serves one [P] snapshot-bootstrap exchange:
   [M snapshot <gen> <offset>] followed by a single chunk holding the
   snapshot text, all three mutually consistent (rendered under the db
   lock). Returns whether the session should continue — a failpoint
   killing the bootstrap mid-flight ends the session, which is exactly
   how a real mid-bootstrap crash presents to the replica. *)
let handle_snapshot_request t session oc =
  let reply r =
    try
      Protocol.write_response oc r;
      flush oc;
      true
    with Sys_error _ | Unix.Unix_error _ -> false
  in
  match with_db_lock ~session t (fun () -> Db.replication_snapshot t.db) with
  | exception Db.Error msg -> reply (Protocol.Error msg)
  | None ->
    reply (Protocol.Error "REPLICATION: this server has no durable WAL to ship")
  | Some (gen, text, offset, epoch) -> (
    Metrics.incr m_repl_bootstraps;
    match Failpoint.stream ~site:"repl.snapshot" text with
    | None, _ -> false (* dropped mid-bootstrap: sever *)
    | Some p, kill -> (
      match
        Protocol.write_response oc
          (Protocol.Message (Printf.sprintf "snapshot %d %d %d" gen offset epoch));
        Protocol.write_chunk oc p;
        flush oc
      with
      | () -> not kill
      | exception (Sys_error _ | Unix.Unix_error _) -> false))

(* --- Statement execution ------------------------------------------------ *)

(* Every failure becomes an E response; the session survives. Expected
   engine errors travel as their bare message; a tripped governance
   token travels as its typed message (TIMEOUT:/BUDGET:/SHUTDOWN:/
   CANCELLED: prefix); anything else (a bug, a poison statement) is
   caught by the final catch-all so one client cannot take the server
   down. Simulated crashes ([Failpoint.Crash]) are deliberately NOT
   caught — they stand for process death. Read-only statements hold
   the lock shared. *)
let execute_statement_guarded t session ~token ~params ~fingerprint stmt =
  with_db_lock ~shared:(Db.read_only_statement stmt) ~session t (fun () ->
      match
        Tip_storage.Failpoint.hit ~site:"server.exec" ();
        (* waiting in the lock queue counts against the deadline: a
           statement whose deadline passed while queued is answered
           without executing at all *)
        Deadline.check token;
        Db.exec_statement ~token ~fingerprint ~session:session.engine t.db
          ~params stmt
      with
      | result -> result_to_response result
      | exception Deadline.Cancelled reason ->
        Protocol.Error (Deadline.reason_message reason)
      | exception Db.Error msg -> Protocol.Error msg
      | exception Tip_engine.Planner.Plan_error msg -> Protocol.Error msg
      | exception Tip_engine.Expr_eval.Eval_error msg -> Protocol.Error msg
      | exception Tip_storage.Value.Type_error msg -> Protocol.Error msg
      | exception Tip_storage.Table.Constraint_violation msg ->
        Protocol.Error msg
      | exception Tip_storage.Catalog.Catalog_error msg -> Protocol.Error msg
      | exception Tip_storage.Schema.Schema_error msg -> Protocol.Error msg
      | exception (Tip_storage.Failpoint.Crash _ as e) -> raise e
      | exception e ->
        Log.err (fun m ->
            m "internal error executing %S: %s"
              (Tip_sql.Pretty.statement_to_string stmt)
              (Printexc.to_string e));
        Protocol.Error ("internal error: " ^ Printexc.to_string e))

(* The statement span is the wire statement's one clock: it times the
   statement for /metrics and the slow log, and is the root of the tree
   a slow statement exports when --trace-dir is on. *)
let execute_guarded t ~session ~params sql =
  let span = Span.start Span.Statement in
  let response =
    Fun.protect ~finally:(fun () -> Span.stop span) @@ fun () ->
    match Tip_sql.Parser.parse_with_tokens sql with
    | exception Tip_sql.Parser.Error msg -> Protocol.Error msg
    | Ast.Promote, _ when t.promote_handler <> None ->
      (* Runs the replication client's promotion outside the db lock —
         the handler stops the follower loop (which may itself be
         holding the lock to apply a batch) and takes the lock for the
         switch itself. *)
      if t.draining then
        Protocol.Error (Deadline.reason_message Deadline.Shutdown)
      else (
        match (Option.get t.promote_handler) () with
        | Ok (gen, epoch) ->
          Metrics.incr m_promotions;
          Protocol.Message
            (Printf.sprintf
               "PROMOTE complete: now primary (generation %d, epoch %d)" gen
               epoch)
        | Error msg -> Protocol.Error msg
        | exception e ->
          Protocol.Error ("PROMOTE failed: " ^ Printexc.to_string e))
    | stmt, tokens ->
      if t.draining then
        Protocol.Error (Deadline.reason_message Deadline.Shutdown)
      else begin
        (* armed before the lock: time queued for it counts *)
        let token =
          Deadline.create
            ?timeout_ms:(Db.statement_timeout_ms ~session:session.engine t.db)
            ()
        in
        (* one fingerprint keys both the ASH samples and the store *)
        let fingerprint = Tip_sql.Lexer.fingerprint_tokens tokens in
        Span.begin_statement session.live ~query:sql ~fingerprint ~token;
        Fun.protect
          ~finally:(fun () ->
            Span.end_statement session.live
              ~in_transaction:(Db.in_transaction ~session:session.engine t.db))
          (fun () ->
            execute_statement_guarded t session ~token ~params ~fingerprint
              stmt)
      end
  in
  (match response with
  | Protocol.Error _ -> Metrics.incr m_errors
  | _ -> ());
  let ms = float_of_int (Span.elapsed_ns span) /. 1e6 in
  (match t.slow_ms with
  | Some threshold when ms >= threshold ->
    let rows = response_rows response in
    Tip_obs.Log_sink.event ~session:session.live.id ~event:"slow_query"
      ~text:(Printf.sprintf "SLOW %.3f ms rows=%d stmt=%s" ms rows sql)
      [ ("ms", Printf.sprintf "%.3f" ms);
        ("rows", string_of_int rows);
        ("stmt", sql) ];
    (* Slow statements additionally export their span tree as a Chrome
       trace-event file when --trace-dir / TIP_TRACE_DIR is set. *)
    Option.iter
      (fun path -> Log.debug (fun m -> m "trace exported to %s" path))
      (Span.export_chrome span)
  | _ -> ());
  response

(* --- Sessions ----------------------------------------------------------- *)

let handle_session t fd addr =
  (* SO_RCVTIMEO makes a silent client's read fail after the idle
     timeout; the session is then told why (E IDLE_TIMEOUT) and
     dropped, so clients can tell an idle drop from a crash. *)
  (match t.idle_timeout with
  | Some secs -> (
    try Unix.setsockopt_float fd Unix.SO_RCVTIMEO secs
    with Unix.Unix_error _ | Invalid_argument _ -> ())
  | None -> ());
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let params = ref [] in
  let session = register_session t fd addr in
  let in_tx () = Db.in_transaction ~session:session.engine t.db in
  let reply response =
    try
      Span.with_ Span.ClientWrite (fun () ->
          Protocol.write_response oc response;
          flush oc);
      true
    with Sys_error _ | Unix.Unix_error _ -> false (* peer went away *)
  in
  let idle_drop () =
    Metrics.incr m_idle_drops;
    ignore
      (reply
         (Protocol.Error
            (Printf.sprintf "IDLE_TIMEOUT: session idle for %gs, closing"
               (Option.value t.idle_timeout ~default:0.))));
    Log.debug (fun m -> m "dropping idle session")
  in
  let rec loop () =
    match Span.with_ Span.ClientRead (fun () -> input_line ic) with
    | exception End_of_file -> ()
    | exception Sys_error _ ->
      (* read timed out (SO_RCVTIMEO); if the socket is actually broken
         the farewell write just fails silently inside [reply] *)
      idle_drop ()
    | exception Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) ->
      idle_drop ()
    | exception Sys_blocked_io ->
      (* buffered channels surface an EAGAIN read as Sys_blocked_io *)
      idle_drop ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
      Log.debug (fun m -> m "dropping broken session")
    | line -> (
      (* A malformed B line can make [decode_request] itself raise (bad
         wire int, unregistered type, ...): answer E and keep going. *)
      match (try Ok (Protocol.decode_request line) with e -> Error e) with
      | Ok (Some Protocol.Quit) -> ()
      | Ok (Some (Protocol.Bind (name, v))) ->
        params := (name, v) :: List.remove_assoc name !params;
        loop ()
      | Ok (Some (Protocol.Execute sql)) ->
        let response =
          execute_guarded t ~session ~params:!params sql
        in
        params := [];
        if reply response then loop ()
      | Ok (Some Protocol.Metrics) ->
        if reply (Protocol.Message (Metrics.dump_text ())) then loop ()
      | Ok (Some (Protocol.Wal_subscribe { gen; offset; epoch })) ->
        (* the session becomes a replication stream; when the stream
           ends (drain, gen change, broken link) so does the session *)
        if t.draining then
          ignore (reply (Protocol.Error (Deadline.reason_message Deadline.Shutdown)))
        else if in_tx () then
          ignore (reply (Protocol.Error "BUSY: cannot stream the WAL inside a transaction"))
        else handle_replication_stream t fd ic oc ~addr ~gen ~offset ~epoch
      | Ok (Some Protocol.Snapshot_request) ->
        if t.draining then
          ignore (reply (Protocol.Error (Deadline.reason_message Deadline.Shutdown)))
        else if handle_snapshot_request t session oc then loop ()
      | Ok (Some (Protocol.Ack _)) ->
        (* an ack outside a subscription has nothing to update *)
        loop ()
      | Ok (Some Protocol.Lag_probe) ->
        let s = match t.staleness_probe with Some f -> f () | None -> 0.0 in
        if reply (Protocol.Message (Printf.sprintf "staleness %.6f" s)) then
          loop ()
      | Ok (Some Protocol.Role_probe) ->
        (* Primary discovery for HA clients: role + promotion epoch,
           read under the db lock so a concurrent PROMOTE can never
           show a half-switched answer. *)
        let role, epoch =
          with_db_lock ~shared:true ~session t (fun () ->
              ((if Db.read_only t.db then "replica" else "primary"),
               Db.epoch t.db))
        in
        if reply (Protocol.Message (Printf.sprintf "role %s %d" role epoch))
        then loop ()
      | Ok None ->
        if reply (Protocol.Error "malformed request") then loop ()
      | Error e ->
        if reply (Protocol.Error ("malformed request: " ^ Printexc.to_string e))
        then loop ())
  in
  Metrics.incr m_sessions;
  Metrics.gauge_add g_sessions_active 1;
  Fun.protect
    ~finally:(fun () ->
      (* the session's open transaction dies with it, and the lock it
         held goes back *)
      if in_tx () then begin
        (try Db.close_session t.db session.engine
         with e -> Log.err (fun m -> m "rollback: %s" (Printexc.to_string e)));
        Rwlock.unlock t.db_lock
      end;
      Span.unregister session.live;
      Metrics.gauge_add g_sessions_active (-1);
      Atomic.decr t.active;
      (* shutdown before close: a replication stream's ack-reader thread
         may still be blocked in read() on this fd, and that in-flight
         read keeps the socket's file description alive past close() —
         the peer would never see FIN. shutdown() severs the connection
         itself, waking both the blocked reader and the remote end. *)
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    loop

(* Admission rejection: one short write, then close. Runs on its own
   thread so a slow or unresponsive peer cannot stall the accept loop. *)
let reject_session fd reason =
  (try
     let oc = Unix.out_channel_of_descr fd in
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0;
     Protocol.write_response oc (Protocol.Error reason);
     flush oc
   with Sys_error _ | Unix.Unix_error _ | Invalid_argument _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let server_ids = Atomic.make 1

(* Creates a listening socket; port 0 picks an ephemeral port.
   [idle_timeout] (seconds) drops sessions that stay silent that long.
   [slow_ms] logs statements at or above that latency to the obs sink.
   [max_sessions] rejects connections beyond that many concurrent
   sessions with E OVERLOADED; the kernel accept backlog is bounded to
   match, so refused load queues shallowly instead of piling up.
   [statement_timeout_ms] is the deadline every session starts with
   (sessions change it with SET TIMEOUT). *)
let listen ?(host = "127.0.0.1") ?idle_timeout ?slow_ms ?max_sessions
    ?statement_timeout_ms ~port db =
  (* a client vanishing mid-response must surface as EPIPE on the write,
     not kill the whole server *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  let backlog =
    match max_sessions with Some m -> Stdlib.min 16 (Stdlib.max 1 m) | None -> 16
  in
  Unix.listen fd backlog;
  let t =
    { id = Atomic.fetch_and_add server_ids 1;
      db;
      db_lock = Rwlock.create ();
      listener = fd;
      idle_timeout;
      slow_ms;
      statement_timeout_ms;
      max_sessions;
      active = Atomic.make 0;
      session_ids = Atomic.make 1;
      replicas = Hashtbl.create 4;
      replicas_lock = Mutex.create ();
      replica_ids = Atomic.make 1;
      staleness_probe = None;
      promote_handler = None;
      draining = false;
      running = true }
  in
  (* Per-subscriber replication lag, queryable on the primary. Only a
     durable server can be a primary; on a replica the replication
     client registers its own upstream-facing view under the same name
     and column shape. The registry is process-global, so registration
     CHAINS onto any provider already there: a process hosting both
     ends (tests, cascading setups) reports the union, with the [role]
     column telling subscriber rows from the upstream row apart. *)
  if Db.durability_dir db <> None then begin
    let prev = Tip_engine.Vtab.find "tip_stat_replication" in
    Tip_engine.Vtab.register
      { Tip_engine.Vtab.vt_name = "tip_stat_replication";
        vt_cols =
          [| "peer_addr"; "role"; "state"; "generation"; "wal_bytes";
             "acked_bytes"; "lag_bytes"; "acked_commits"; "lag_seconds";
             "epoch"; "archive_generation" |];
        vt_help = "one row per replication subscriber (primary side)";
        vt_rows =
          (fun catalog ->
            (match prev with
            | Some p -> p.Tip_engine.Vtab.vt_rows catalog
            | None -> [])
            @ replication_rows t ()) }
  end;
  (* Live session activity as a queryable relation. Registered per
     server instance (the newest server in the process wins — tests
     spin up one at a time); the catalog argument is ignored because
     activity is server state, not database state. *)
  Tip_engine.Vtab.register
    { Tip_engine.Vtab.vt_name = "tip_stat_activity";
      vt_cols =
        [| "session_id"; "client_addr"; "state"; "query"; "started";
           "deadline_remaining_ms" |];
      vt_help = "one row per connected client session";
      vt_rows = (fun _catalog -> activity_rows t ()) };
  t

let port t =
  match Unix.getsockname t.listener with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> invalid_arg "Server.port: unix socket"

(* --- Session domains ------------------------------------------------------ *)

(* Sessions are spread round-robin over the [Domains.size ()] domains
   (DESIGN.md §17): slot 0 is the accept loop's own domain, the others
   are host domains. Each session's thread is
   created inside its domain, so two sessions run in parallel with no
   hand-off per statement; with one domain every session is a thread of
   the accept loop's domain. A session its domain fails to start is
   journaled as a [thread_crash] and its connection closed. *)
let next_slot = Atomic.make 0

let start_session t fd addr =
  let slot = Atomic.fetch_and_add next_slot 1 mod Domains.size () in
  Domains.on_domain ~slot
    ~on_error:(fun _ ->
      Atomic.decr t.active;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      ignore
        (Events.spawn ~name:("session " ^ addr) (fun () ->
             handle_session t fd addr)))

(* Accept loop: one thread per client, bounded by admission control. *)
let serve t =
  Log.info (fun m -> m "listening on port %d" (port t));
  Metrics.gauge_set g_pool_size (Domains.size ());
  let rec accept_loop () =
    if t.running then begin
      match Unix.accept t.listener with
      | client_fd, sockaddr ->
        let addr =
          match sockaddr with
          | Unix.ADDR_INET (a, p) ->
            Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
          | Unix.ADDR_UNIX path -> path
        in
        let admitted =
          match t.max_sessions with
          | Some m -> Atomic.get t.active < m
          | None -> true
        in
        if admitted then begin
          Atomic.incr t.active;
          start_session t client_fd addr
        end
        else begin
          Metrics.incr m_sessions_rejected;
          Log.info (fun m ->
              m "rejecting connection: %d sessions active (max %d)"
                (Atomic.get t.active)
                (Option.value t.max_sessions ~default:0));
          ignore
            (Events.spawn ~name:"admission" (fun () ->
                 Span.with_ Span.Admission (fun () ->
                     reject_session client_fd
                       (Printf.sprintf
                          "OVERLOADED: %d sessions active (max %d), retry later"
                          (Atomic.get t.active)
                          (Option.value t.max_sessions ~default:0)))))
        end;
        accept_loop ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        () (* listener closed by [stop] *)
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
        (* a signal (e.g. the SIGTERM that initiates a drain) interrupts
           the blocking accept; loop — the [t.running] check decides *)
        accept_loop ()
    end
  in
  accept_loop ()

(* Runs the accept loop on a background thread; returns immediately. *)
let serve_in_background t =
  ignore (Events.spawn ~name:"accept loop" (fun () -> serve t))

let stop t =
  t.running <- false;
  try Unix.close t.listener with Unix.Unix_error _ -> ()

(* Graceful drain: stop accepting, cancel every in-flight statement
   through the token its session holds (they abort within one row or
   chunk boundary, journal nothing, and answer E SHUTDOWN), close the
   socket of every session idle inside a transaction (it wakes, rolls
   back and releases the db lock), then wait — up to [grace] seconds —
   for all of that to finish. Other sessions blocked reading their
   socket are left to the process exit; they hold neither statements
   nor transactions. Returns the drain duration in seconds. *)
let drain ?(grace = 5.0) t =
  let t0 = Unix.gettimeofday () in
  t.draining <- true;
  stop t;
  (* cancels whatever is in flight on each look, so a statement that
     slipped past the draining check is cancelled too, and closes the
     sockets of sessions idle in a transaction; returns the count *)
  let cancel_in_flight () =
    List.fold_left
      (fun n (s : Span.session) ->
        match s.activity.token, s.fd with
        | Some tok, _ ->
          Deadline.cancel tok Deadline.Shutdown;
          n + 1
        | None, Some fd when String.equal s.activity.state "idle in transaction"
          ->
          (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
          n + 1
        | None, _ -> n)
      0 (own_sessions t)
  in
  let deadline = t0 +. grace in
  let replicas_left () =
    with_replicas_lock t (fun () -> Hashtbl.length t.replicas)
  in
  (* Replication streams poll [t.draining] and answer their subscribers
     E SHUTDOWN themselves; wait for them alongside the in-flight
     statements so a drained primary has told every replica goodbye. *)
  let rec wait () =
    if
      (cancel_in_flight () > 0 || replicas_left () > 0)
      && Unix.gettimeofday () < deadline
    then begin
      Thread.delay 0.01;
      wait ()
    end
  in
  wait ();
  let secs = Unix.gettimeofday () -. t0 in
  Metrics.gauge_set g_drain_ms (int_of_float (secs *. 1000.));
  Log.info (fun m ->
      m "drained in %.3fs (%d statement(s) still in flight)" secs
        (cancel_in_flight ()));
  secs

let draining t = t.draining
let active_sessions t = Atomic.get t.active

(* The database lock, shared with the replication client on a replica
   so stream replay (exclusive) and reads (shared) interleave safely. *)
let db_lock t = t.db_lock

(* Installed by the replication client on a replica server: lets L
   probes report how far behind the primary this server's reads are. *)
let set_staleness_probe t f = t.staleness_probe <- Some f

(* Installed by the replication client on a served replica: PROMOTE
   (wire statement or SIGUSR1) runs it to perform the failover. *)
let set_promote_handler t f = t.promote_handler <- Some f

let promote t =
  match t.promote_handler with
  | None -> Error "PROMOTE: this server is not a replica"
  | Some f -> (
    match f () with
    | Ok _ as ok ->
      Metrics.incr m_promotions;
      ok
    | Error _ as e -> e)

let replica_count t = with_replicas_lock t (fun () -> Hashtbl.length t.replicas)
