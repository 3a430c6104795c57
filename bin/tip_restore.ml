(* tip_restore: rebuild a database from an online backup, an archived
   WAL chain, and (optionally) the live log tail — to the end of
   history or to a point in time.

   Usage:
     tip_restore ./backup --archive-dir ./archive --out ./restored
     tip_restore ./backup --archive-dir ./archive --wal-tail ./db/wal \
         --until '2000-06-01 12:00:00' --out ./restored

   The restored directory is a durable database root: start a server on
   it with tip_serve --durability ./restored. Without --out the restore
   is a dry run — the chain is verified and replayed, the summary
   printed, nothing written.

   --until takes a chronon ('2000-06-01', '2000-06-01 12:00:00') or raw
   unix seconds; replay stops just before the first commit stamped
   after it. A target older than the backup's base snapshot is refused
   (TARGET_TOO_OLD, exit 3): history before the snapshot is already
   folded in and cannot be un-applied. *)

module Archive = Tip_storage.Archive
module Chronon = Tip_core.Chronon

let parse_until s =
  match int_of_string_opt s with
  | Some secs -> secs
  | None -> (
    match Chronon.of_string s with
    | Some c -> Chronon.to_unix_seconds c
    | None ->
      Printf.eprintf
        "tip_restore: bad --until %S (want a chronon like '2000-06-01 \
         12:00:00' or unix seconds)\n"
        s;
      exit 2)

let main backup archive_dir tail until out =
  Tip_blade.Values.register_types ();
  let until = Option.map parse_until until in
  match Archive.restore ~backup ?archive_dir ?tail ?until () with
  | exception Archive.Archive_error msg ->
    Printf.eprintf "tip_restore: %s\n" msg;
    let too_old =
      String.length msg >= 15 && String.sub msg 0 15 = "TARGET_TOO_OLD:"
    in
    exit (if too_old then 3 else 4)
  | exception Tip_storage.Persist.Format_error msg ->
    Printf.eprintf "tip_restore: corrupt base snapshot: %s\n" msg;
    exit 4
  | catalog, info ->
    Printf.printf "restored from %s: base generation %d, epoch %d\n" backup
      info.Archive.r_base_gen info.Archive.r_epoch;
    Printf.printf
      "replayed %d archived segment(s)%s: %d batch(es), %d record(s)\n"
      info.Archive.r_segments
      (if info.Archive.r_tail_replayed then " + live tail" else "")
      info.Archive.r_applied_batches info.Archive.r_applied_records;
    (match info.Archive.r_missing_gens with
    | [] -> ()
    | gens ->
      Printf.printf "warning: chain gap(s) skipped: generation(s) %s\n"
        (String.concat ", " (List.map string_of_int gens)));
    (match info.Archive.r_last_commit_at with
    | Some at ->
      Printf.printf "state as of commit at %s (%d)\n"
        (Chronon.to_string (Chronon.of_unix_seconds at))
        at
    | None -> Printf.printf "state carries no stamped commits\n");
    (match until with
    | Some t ->
      if info.Archive.r_reached_target then
        Printf.printf "stopped at the requested target (%d)\n" t
      else
        Printf.printf
          "history ended before the requested target (%d): restored \
           everything available\n"
          t
    | None -> ());
    (match out with
    | None -> Printf.printf "dry run: no --out directory, nothing written\n"
    | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      (* the restored root gets a fresh generation past everything in
         the chain, so a server opened on it (even one re-attached to
         the same archive) never collides with a sealed segment *)
      let last_gen = info.Archive.r_last_gen in
      Tip_storage.Persist.save ~wal_gen:(last_gen + 1)
        ~epoch:info.Archive.r_epoch
        ?asof:info.Archive.r_last_commit_at catalog
        (Filename.concat dir "snapshot");
      Printf.printf
        "wrote %s (generation %d): start a server with tip_serve \
         --durability %s\n"
        dir (last_gen + 1) dir);
    exit 0

let () =
  let open Cmdliner in
  let backup =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BACKUP"
           ~doc:"Backup directory written by BACKUP TO.")
  in
  let archive_dir =
    Arg.(value & opt (some string) None & info [ "archive-dir" ] ~docv:"DIR"
           ~doc:"WAL archive to replay on top of the base snapshot \
                 (tip_serve --archive-dir).")
  in
  let tail =
    Arg.(value & opt (some string) None & info [ "wal-tail" ] ~docv:"FILE"
           ~doc:"Live WAL file to replay after the archived chain (the \
                 primary's DIR/wal); a missing file is simply skipped.")
  in
  let until =
    Arg.(value & opt (some string) None & info [ "until" ] ~docv:"INSTANT"
           ~doc:"Point-in-time target: restore up to the last commit stamped \
                 at or before this chronon (or unix seconds). Targets older \
                 than the base snapshot are refused (exit 3).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR"
           ~doc:"Write the restored state as a durable database directory \
                 (openable with tip_serve --durability). Omitted: dry run.")
  in
  let term = Term.(const main $ backup $ archive_dir $ tail $ until $ out) in
  let info =
    Cmd.info "tip_restore"
      ~doc:"Restore a TIP database from a backup and WAL archive \
            (point-in-time recovery)"
  in
  exit (Cmd.eval (Cmd.v info term))
