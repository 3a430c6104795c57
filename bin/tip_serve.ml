(* tip_serve: serve a TIP database over TCP.

   Usage:
     tip_serve --port 5499 --demo
     tip_serve --port 5499 --load db.snapshot --save db.snapshot
     tip_serve --port 5499 --durability ./dbdir --sync always
     tip_serve --port 5499 --replica-of 127.0.0.1:5498

   With --durability DIR every committed statement is logged to DIR/wal
   before its result is returned, and startup recovers from DIR (snapshot
   plus committed log tail); --load/--save are ignored in that mode.

   With --replica-of HOST:PORT the server is a read replica: it
   bootstraps a snapshot from the primary, tails its WAL stream, and
   serves reads (writes answer E READ_ONLY). Losing the primary keeps
   reads flowing with honestly growing staleness.

   Combining --replica-of with --durability makes an HA node
   (DESIGN.md §15): startup recovers the local durable state and offers
   it back to the primary (a fence or generation change demotes it to a
   fresh bootstrap), and PROMOTE — the wire statement or SIGUSR1 —
   stops following and turns the node into a writable primary rooted at
   the durability directory under a bumped epoch.

   With --archive-dir DIR every checkpoint seals the finished WAL
   generation into DIR (CRC-verified chain manifest) instead of
   discarding it; together with BACKUP TO this enables point-in-time
   recovery via tip_restore.

   Clients: tip_shell --connect 127.0.0.1:5499, or Tip_server.Remote. *)

module Db = Tip_engine.Database
module Sink = Tip_obs.Log_sink

let parse_sync s =
  match Tip_storage.Wal.sync_policy_of_string s with
  | Some p -> p
  | None ->
    Printf.eprintf "tip_server: bad --sync %S (want always|never|every=N)\n" s;
    exit 2

let parse_log_format s =
  match String.lowercase_ascii s with
  | "text" -> Sink.Text
  | "json" -> Sink.Json
  | _ ->
    Printf.eprintf "tip_server: bad --log-format %S (want text|json)\n" s;
    exit 2

let parse_replica_of s =
  match String.rindex_opt s ':' with
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when host <> "" -> (host, p)
    | _ ->
      Printf.eprintf "tip_server: bad --replica-of %S (want HOST:PORT)\n" s;
      exit 2)
  | None ->
    Printf.eprintf "tip_server: bad --replica-of %S (want HOST:PORT)\n" s;
    exit 2

let main port demo load save durability sync archive_dir idle_timeout now
    slow_ms max_sessions statement_timeout_ms trace_dir log_format replica_of
    monitor_port ready_max_staleness =
  (* every server log line — Logs sources and our own announcements —
     goes through the one mutex-guarded timestamped sink *)
  Option.iter (fun s -> Sink.set_format (parse_log_format s)) log_format;
  Option.iter (fun d -> Tip_obs.Trace.set_trace_dir (Some d)) trace_dir;
  Logs.set_reporter (Sink.reporter ());
  if Option.is_some archive_dir && Option.is_none durability then begin
    Printf.eprintf
      "tip_server: --archive-dir requires --durability (the archive seals \
       finished WAL generations)\n";
    exit 2
  end;
  let open_durable dir =
    Tip_blade.Values.register_types ();
    let db, info =
      Db.open_durable ~sync:(parse_sync sync) ?archive_dir ~dir ()
    in
    Tip_blade.Blade.install db;
    if info.Tip_storage.Recovery.replayed_records > 0 then
      Sink.line "tip_server: replayed %d log record(s) from %s"
        info.Tip_storage.Recovery.replayed_records dir;
    (match info.Tip_storage.Recovery.stopped with
    | Some reason ->
      Sink.line "tip_server: log tail dropped during recovery: %s" reason
    | None -> ());
    db
  in
  let db, resume =
    match replica_of, durability with
    | Some _, Some dir ->
      (* HA node: recover the local durable state and offer it back to
         the primary as a resume position — the primary's epoch fence
         decides whether that history is reusable or must be demoted to
         a fresh bootstrap *)
      let db = open_durable dir in
      Db.set_read_only db true;
      (db, Db.replication_state db)
    | Some _, None ->
      (* a plain replica starts empty (the bootstrap fills it) *)
      Tip_blade.Values.register_types ();
      let db = Db.create () in
      Tip_blade.Blade.install db;
      Db.set_read_only db true;
      (db, None)
    | None, Some dir -> (open_durable dir, None)
    | None, None -> (
      match demo, load with
      | true, _ -> (Tip_workload.Medical.demo_database (), None)
      | false, Some file ->
        Tip_blade.Values.register_types ();
        let catalog = Tip_storage.Persist.load file in
        let db = Db.create ~catalog () in
        Tip_blade.Blade.install db;
        (db, None)
      | false, None -> (Tip_blade.Blade.create_database (), None))
  in
  Option.iter
    (fun d -> ignore (Db.exec db (Printf.sprintf "SET NOW = '%s'" d)))
    now;
  let server =
    Tip_server.Server.listen ?idle_timeout ?slow_ms ?max_sessions
      ?statement_timeout_ms ~port db
  in
  let replication =
    Option.map
      (fun spec ->
        let host, pport = parse_replica_of spec in
        let repl =
          Tip_server.Replication.start
            ~lock:(Tip_server.Server.db_lock server) ?resume ~host ~port:pport
            db
        in
        Tip_server.Server.set_staleness_probe server (fun () ->
            (* a promoted node is the primary: its reads are fresh *)
            if String.equal (Tip_server.Replication.state repl) "promoted" then
              0.
            else Tip_server.Replication.staleness_seconds repl);
        Tip_server.Server.set_promote_handler server (fun () ->
            match durability with
            | None ->
              Error
                "PROMOTE: this replica has no --durability directory to root \
                 a primary WAL"
            | Some dir -> (
              match
                Tip_server.Replication.promote ~sync:(parse_sync sync)
                  ?archive_dir repl ~dir ()
              with
              | Ok (gen, epoch) ->
                Sink.line
                  "tip_server: promoted to primary (generation %d, epoch %d)"
                  gen epoch;
                Ok (gen, epoch)
              | Error e -> Error e));
        Sink.line "tip_server: replicating from %s:%d (read-only)" host pport;
        repl)
      replica_of
  in
  (* The ops-facing HTTP endpoint (DESIGN.md §16): liveness, readiness,
     Prometheus metrics and the ASH ring, all off the database lock.
     Readiness: recovery is done by the time we listen, so a primary is
     ready unless draining; a replica must be streaming (or promoted)
     with staleness under --ready-max-staleness. *)
  let monitor =
    Option.map
      (fun mp ->
        Tip_server.Monitor.start ~port:mp
          ~ready:(fun () ->
            if Tip_server.Server.draining server then (false, "draining")
            else
              match replication with
              | None -> (true, "ready: primary")
              | Some repl -> (
                match Tip_server.Replication.state repl with
                | "promoted" -> (true, "ready: promoted primary")
                | "streaming" ->
                  let stale =
                    Tip_server.Replication.staleness_seconds repl
                  in
                  if stale <= ready_max_staleness then
                    ( true,
                      Printf.sprintf "ready: streaming, staleness %.3fs" stale
                    )
                  else
                    ( false,
                      Printf.sprintf
                        "not ready: staleness %.3fs exceeds %.3fs" stale
                        ready_max_staleness )
                | st -> (false, "not ready: replication " ^ st)))
          ())
      monitor_port
  in
  Option.iter
    (fun m ->
      Sink.line "tip_server: monitoring endpoint on port %d"
        (Tip_server.Monitor.port m))
    monitor;
  Sink.line "tip_server: listening on port %d%s"
    (Tip_server.Server.port server)
    (if demo then " (medical demo loaded)" else "");
  (* Graceful drain: the first SIGTERM/SIGINT only closes the listener
     (async-signal-cheap), which makes [serve] return on the main
     thread; the real work — cancelling in-flight statements via their
     tokens, waiting for them to unwind, checkpointing — runs there,
     not inside the handler. A second signal hard-exits. *)
  let signalled = Atomic.make false in
  let on_signal _ =
    if Atomic.exchange signalled true then begin
      Sink.line "tip_server: second signal, exiting immediately";
      exit 130
    end
    else Tip_server.Server.stop server
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  (* SIGUSR1 promotes a served replica (the orchestrator-driven failover
     path); the handler only spawns a thread — promotion joins the
     follower thread and must not run inside a signal context *)
  if Option.is_some replica_of then
    Sys.set_signal Sys.sigusr1
      (Sys.Signal_handle
         (fun _ ->
           ignore
             (Thread.create
                (fun () ->
                  match Tip_server.Server.promote server with
                  | Ok _ -> ()
                  | Error e -> Sink.line "tip_server: %s" e)
                ())));
  Tip_server.Server.serve server;
  Sink.line "tip_server: draining";
  Option.iter Tip_server.Monitor.stop monitor;
  Option.iter Tip_server.Replication.stop replication;
  let secs = Tip_server.Server.drain server in
  Sink.line "tip_server: drained in %.3fs, shutting down" secs;
  if Option.is_some durability then begin
    ignore (Db.checkpoint db);
    Db.close_durable db
  end
  else
    Option.iter
      (fun file ->
        Tip_storage.Persist.save (Db.catalog db) file;
        Sink.line "tip_server: saved to %s" file)
      save;
  exit 0

let () =
  let open Cmdliner in
  let port =
    Arg.(value & opt int 5499 & info [ "port"; "p" ] ~docv:"PORT"
           ~doc:"TCP port to listen on (0 picks an ephemeral port).")
  in
  let demo = Arg.(value & flag & info [ "demo" ] ~doc:"Preload the medical demo.") in
  let load =
    Arg.(value & opt (some string) None & info [ "load" ] ~docv:"FILE"
           ~doc:"Load a snapshot at startup.")
  in
  let save =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE"
           ~doc:"Save a snapshot on shutdown (SIGINT/SIGTERM).")
  in
  let durability =
    Arg.(value & opt (some string) None & info [ "durability" ] ~docv:"DIR"
           ~doc:"Durable storage directory: recover on startup, write-ahead \
                 log every committed statement, checkpoint on shutdown.")
  in
  let sync =
    Arg.(value & opt string "always" & info [ "sync" ] ~docv:"MODE"
           ~doc:"WAL sync policy: always, never, or every=N.")
  in
  let archive_dir =
    Arg.(value & opt (some string) None & info [ "archive-dir" ] ~docv:"DIR"
           ~doc:"WAL archive: seal every finished generation into DIR at \
                 checkpoint (CRC-verified chain manifest) for point-in-time \
                 recovery with tip_restore. Requires $(b,--durability).")
  in
  let idle_timeout =
    Arg.(value & opt (some float) None & info [ "idle-timeout" ] ~docv:"SECONDS"
           ~doc:"Drop client sessions idle longer than this.")
  in
  let now =
    Arg.(value & opt (some string) None & info [ "now" ] ~docv:"DATE"
           ~doc:"Freeze NOW at the given chronon.")
  in
  let slow_ms =
    Arg.(value & opt (some float) None & info [ "slow-ms" ] ~docv:"MS"
           ~doc:"Log statements taking at least this many milliseconds \
                 (text, latency, row count).")
  in
  let max_sessions =
    Arg.(value & opt (some int) None & info [ "max-sessions" ] ~docv:"N"
           ~doc:"Admission control: reject connections beyond N concurrent \
                 sessions with E OVERLOADED instead of queueing them.")
  in
  let statement_timeout_ms =
    Arg.(value & opt (some int) None & info [ "statement-timeout-ms" ]
           ~docv:"MS"
           ~doc:"Default per-statement deadline in milliseconds; statements \
                 exceeding it abort with E TIMEOUT (sessions may override \
                 with SET TIMEOUT).")
  in
  let trace_dir =
    Arg.(value & opt (some string) None & info [ "trace-dir" ] ~docv:"DIR"
           ~doc:"Export the span tree of every slow statement (see \
                 $(b,--slow-ms)) as a Chrome trace-event JSON file in DIR \
                 (also settable via TIP_TRACE_DIR).")
  in
  let log_format =
    Arg.(value & opt (some string) None & info [ "log-format" ] ~docv:"FMT"
           ~doc:"Log output format: text (default) or json — one structured \
                 object per line (also settable via TIP_LOG_FORMAT).")
  in
  let replica_of =
    Arg.(value & opt (some string) None & info [ "replica-of" ] ~docv:"HOST:PORT"
           ~doc:"Run as a read replica of the primary at HOST:PORT: \
                 bootstrap a snapshot, tail its WAL stream, answer writes \
                 with E READ_ONLY. With $(b,--durability) the node is an HA \
                 member: it rejoins from its recovered local state and can \
                 be promoted to primary (PROMOTE statement or SIGUSR1).")
  in
  let monitor_port =
    Arg.(value & opt (some int) None & info [ "monitor-port" ] ~docv:"PORT"
           ~doc:"Serve the HTTP monitoring endpoint on PORT: GET /metrics \
                 (Prometheus exposition), /healthz (liveness), /readyz \
                 (readiness), /ash.json (active session history). 0 picks \
                 an ephemeral port.")
  in
  let ready_max_staleness =
    Arg.(value & opt float 10.0 & info [ "ready-max-staleness" ]
           ~docv:"SECONDS"
           ~doc:"Replica readiness threshold for /readyz: a streaming \
                 replica further behind its primary than this answers 503.")
  in
  let term =
    Term.(const main $ port $ demo $ load $ save $ durability $ sync
          $ archive_dir $ idle_timeout $ now $ slow_ms $ max_sessions
          $ statement_timeout_ms $ trace_dir $ log_format $ replica_of
          $ monitor_port $ ready_max_staleness)
  in
  let info = Cmd.info "tip_serve" ~doc:"TIP database server" in
  exit (Cmd.eval (Cmd.v info term))
