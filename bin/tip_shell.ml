(* tip_shell: an interactive SQL shell with the TIP DataBlade installed.

   Usage:
     tip_shell                      interactive REPL (statements end in ';')
     tip_shell --demo               preload the paper's medical demo
     tip_shell --load FILE          load a snapshot saved with \save
     tip_shell -c "SQL; SQL"        run statements and exit
     tip_shell --now 1999-10-15     freeze NOW (what-if)
     tip_shell --durability DIR     crash-safe storage (WAL + recovery)

   Remote mode: tip_shell --connect HOST:PORT talks to a tip_server
   instead of an embedded database (shell commands are local-only).

   Shell commands: \save FILE, \load FILE, \tables, \now [DATE], \q. *)

module Db = Tip_engine.Database

let print_result result = print_endline (Db.render_result result)

(* Token of the statement currently executing in the interactive REPL;
   the SIGINT handler cancels it instead of killing the shell. *)
let current_token : Tip_core.Deadline.t option ref = ref None

(* Ctrl-C while a statement runs cancels it cooperatively (the executor
   aborts at the next batch boundary and we return to the prompt);
   Ctrl-C at the prompt exits. Installed only for the interactive
   embedded REPL — batch (-c) and remote modes keep the default. *)
let install_interrupt () =
  try
    Sys.set_signal Sys.sigint
      (Sys.Signal_handle
         (fun _ ->
           match !current_token with
           | Some tok ->
             Tip_core.Deadline.cancel tok Tip_core.Deadline.Client_gone
           | None ->
             print_newline ();
             exit 130))
  with Invalid_argument _ | Sys_error _ -> ()

let handle_error f =
  match f () with
  | () -> ()
  | exception Tip_core.Deadline.Cancelled reason ->
    Printf.printf "cancelled: %s\n" (Tip_core.Deadline.reason_message reason)
  | exception e -> (
    match Db.error_message e with
    | Some msg -> Printf.printf "error: %s\n" msg
    | None -> raise e)

(* Each statement is keyed in tip_stat_statements by its own tokens, as
   if it had been run alone. *)
let run_sql ?(interactive = false) db sql =
  handle_error (fun () ->
      List.iter
        (fun (stmt, tokens) ->
          let token =
            if interactive then Tip_core.Deadline.create ()
            else Tip_core.Deadline.never
          in
          if interactive then current_token := Some token;
          Fun.protect
            ~finally:(fun () -> if interactive then current_token := None)
            (fun () ->
              print_result
                (Db.exec_statement db ~token
                   ~fingerprint:(Tip_sql.Lexer.fingerprint_tokens tokens)
                   ~params:[] stmt)))
        (Tip_sql.Parser.parse_script sql))

let run_shell_command db_ref line =
  let db = !db_ref in
  let parts =
    String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
  in
  match parts with
  | [ "\\q" ] | [ "\\quit" ] -> raise Exit
  | [ "\\tables" ] -> run_sql db "SHOW TABLES"
  | [ "\\save"; file ] ->
    handle_error (fun () ->
        Tip_storage.Persist.save (Db.catalog db) file;
        Printf.printf "saved to %s\n" file)
  | [ "\\load"; file ] ->
    handle_error (fun () ->
        Tip_blade.Values.register_types ();
        let catalog = Tip_storage.Persist.load file in
        let fresh = Db.create ~catalog () in
        Tip_blade.Blade.install fresh;
        db_ref := fresh;
        Printf.printf "loaded %s\n" file)
  | [ "\\now" ] ->
    (match Db.now_override db with
    | Some c -> Printf.printf "NOW = %s (override)\n" (Tip_core.Chronon.to_string c)
    | None ->
      Printf.printf "NOW = %s (wall clock)\n"
        (Tip_core.Chronon.to_string (Tip_core.Tx_clock.now ())))
  | [ "\\now"; date ] -> run_sql db (Printf.sprintf "SET NOW = '%s'" date)
  | [ "\\help" ] ->
    print_endline
      "statements end with ';'.  \\tables  \\save FILE  \\load FILE  \\now [DATE]  \\q"
  | _ -> Printf.printf "unknown command: %s (try \\help)\n" line

let repl db =
  let db_ref = ref db in
  install_interrupt ();
  print_endline "TIP shell — temporal SQL with the TIP DataBlade. \\help for help.";
  let buf = Buffer.create 256 in
  let rec loop () =
    print_string (if Buffer.length buf = 0 then "tip> " else "...> ");
    flush stdout;
    match input_line stdin with
    | exception End_of_file -> ()
    | line ->
      let trimmed = String.trim line in
      if Buffer.length buf = 0 && String.length trimmed > 0 && trimmed.[0] = '\\'
      then begin
        (match run_shell_command db_ref trimmed with
        | () -> loop ()
        | exception Exit -> ())
      end
      else begin
        Buffer.add_string buf line;
        Buffer.add_char buf '\n';
        let s = Buffer.contents buf in
        if String.contains s ';' then begin
          Buffer.clear buf;
          run_sql ~interactive:true !db_ref s;
          loop ()
        end
        else loop ()
      end
  in
  loop ()

(* --- Command line -------------------------------------------------------------- *)

(* Ships each statement of a script as its own source text: the script
   is split on the parser's tokens (';' may appear inside string
   literals), and each piece runs from its first token to the next
   statement's, so the server keys it as if it had been sent alone. *)
let run_remote_script remote sql =
  let rec go = function
    | [] -> ()
    | (_, (tokens : Tip_sql.Token.located array)) :: rest ->
      let first = tokens.(0).offset in
      let stop =
        match rest with
        | (_, next) :: _ -> next.(0).offset
        | [] -> String.length sql
      in
      (match
         Tip_server.Remote.execute remote
           (String.trim (String.sub sql first (stop - first)))
       with
      | result -> print_result result
      | exception Tip_server.Remote.Remote_error msg ->
        Printf.printf "error: %s\n" msg);
      go rest
  in
  match Tip_sql.Parser.parse_script sql with
  | stmts -> go stmts
  | exception Tip_sql.Parser.Error msg -> Printf.printf "error: %s\n" msg

(* Remote REPL: statements go over the wire, one per ';'. *)
let remote_repl remote =
  print_endline "TIP shell (remote) — statements end with ';'; \\q quits.";
  let buf = Buffer.create 256 in
  let rec loop () =
    print_string (if Buffer.length buf = 0 then "tip> " else "...> ");
    flush stdout;
    match input_line stdin with
    | exception End_of_file -> ()
    | line when String.trim line = "\\q" || String.trim line = "\\quit" -> ()
    | line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n';
      let s = Buffer.contents buf in
      if String.contains s ';' then begin
        Buffer.clear buf;
        run_remote_script remote s;
        loop ()
      end
      else loop ()
  in
  loop ()

let run_remote target command stats =
  match String.split_on_char ':' target with
  | [ host; port ] -> (
    Tip_blade.Values.register_types ();
    match Tip_server.Remote.connect ~host ~port:(int_of_string port) () with
    | remote ->
      (match command with
      | Some sql -> run_remote_script remote sql
      | None -> if not stats then remote_repl remote);
      (* --stats in remote mode reads the server's registry (M request) *)
      if stats then begin
        match Tip_server.Remote.metrics remote with
        | dump -> print_string dump
        | exception Tip_server.Remote.Remote_error msg ->
          Printf.printf "error: %s\n" msg
      end;
      Tip_server.Remote.close remote
    | exception Tip_server.Remote.Remote_error msg ->
      Printf.printf "cannot connect to %s: %s\n" target msg)
  | _ -> print_endline "tip_shell: --connect expects HOST:PORT"

let main demo load now command save verbose connect durability sync stats =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  match connect with
  | Some target -> run_remote target command stats
  | None ->
  let db =
    match durability, demo, load with
    | Some dir, _, _ ->
      (* TIP types must exist before the snapshot's literals are parsed. *)
      Tip_blade.Values.register_types ();
      let sync =
        match Tip_storage.Wal.sync_policy_of_string sync with
        | Some p -> p
        | None ->
          Printf.eprintf "tip_shell: bad --sync %S (want always|never|every=N)\n" sync;
          exit 2
      in
      let db, info = Db.open_durable ~sync ~dir () in
      Tip_blade.Blade.install db;
      if info.Tip_storage.Recovery.replayed_records > 0 then
        Printf.printf "replayed %d log record(s) from %s\n"
          info.Tip_storage.Recovery.replayed_records dir;
      db
    | None, true, _ -> Tip_workload.Medical.demo_database ()
    | None, false, Some file ->
      Tip_blade.Values.register_types ();
      let catalog = Tip_storage.Persist.load file in
      let db = Db.create ~catalog () in
      Tip_blade.Blade.install db;
      db
    | None, false, None -> Tip_blade.Blade.create_database ()
  in
  Option.iter (fun d -> run_sql db (Printf.sprintf "SET NOW = '%s'" d)) now;
  (match command with
  | Some sql -> run_sql db sql
  | None -> repl db);
  if Option.is_some durability then begin
    ignore (Db.checkpoint db);
    Db.close_durable db
  end;
  Option.iter
    (fun file ->
      Tip_storage.Persist.save (Db.catalog db) file;
      Printf.printf "saved to %s\n" file)
    save;
  if stats then print_string (Tip_obs.Metrics.dump_text ())

let () =
  let open Cmdliner in
  let demo =
    Arg.(value & flag & info [ "demo" ] ~doc:"Preload the paper's medical demo data.")
  in
  let load =
    Arg.(value & opt (some string) None & info [ "load" ] ~docv:"FILE"
           ~doc:"Load a database snapshot.")
  in
  let now =
    Arg.(value & opt (some string) None & info [ "now" ] ~docv:"DATE"
           ~doc:"Freeze NOW at the given chronon (what-if analysis).")
  in
  let command =
    Arg.(value & opt (some string) None & info [ "c"; "command" ] ~docv:"SQL"
           ~doc:"Execute the statements and exit.")
  in
  let save =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE"
           ~doc:"Save a snapshot on exit.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ]
           ~doc:"Trace statement execution (NOW binding and parsed form).")
  in
  let connect =
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"HOST:PORT"
           ~doc:"Connect to a tip_server instead of running embedded.")
  in
  let durability =
    Arg.(value & opt (some string) None & info [ "durability" ] ~docv:"DIR"
           ~doc:"Durable storage directory: recover on startup, write-ahead \
                 log every committed statement, checkpoint on exit.")
  in
  let sync =
    Arg.(value & opt string "always" & info [ "sync" ] ~docv:"MODE"
           ~doc:"WAL sync policy: always, never, or every=N.")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Print the metrics registry on exit (in remote mode, the \
                 server's registry over the wire).")
  in
  let term =
    Term.(const main $ demo $ load $ now $ command $ save $ verbose $ connect
          $ durability $ sync $ stats)
  in
  let info =
    Cmd.info "tip_shell" ~doc:"SQL shell for the TIP temporal database"
  in
  exit (Cmd.eval (Cmd.v info term))
