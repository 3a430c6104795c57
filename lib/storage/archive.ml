(* WAL archiving, online backup and point-in-time recovery.


   A checkpoint truncates the live log, which without archiving
   destroys the only copy of that generation's history. With an
   archive directory attached, the generation is *sealed* first: its
   raw bytes are copied to [DIR/wal-<gen>] (tmp + fsync + rename, all
   failpoint-armed) and recorded in a chain manifest

     tiparchive 1
     seg <gen> <bytes> <crc32 of the segment's bytes>
     ...

   rewritten atomically after every seal. The manifest is what makes
   the chain trustworthy: a restore re-hashes every segment against its
   recorded CRC before replaying a single record, and a manifest that
   fails to parse is rebuilt from the segment files themselves (each
   one self-describes via its leading generation frame).

   A backup is a consistent (snapshot, generation, offset, epoch, asof)
   five-tuple rendered under the database lock — the same payload a
   replica bootstrap ships over the wire — written to a directory as
   [snapshot] plus an [origin] stamp file. Restoring replays: the base
   generation's archived segment from the backup offset, every later
   archived generation in order, then the (optional) live tail — and
   with a target instant, stops just before the first commit stamped
   after it, exactly the statement-boundary semantics of crash
   recovery. Segments may carry torn tails (a generation sealed from a
   crashed log); replay stops cleanly at the tear and continues with
   the next generation, which is precisely the prefix the primary
   itself recovered onto. *)

module Metrics = Tip_obs.Metrics
module Span = Tip_obs.Span

let log_src = Logs.Src.create "tip.archive" ~doc:"TIP WAL archiving"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_seals =
  Metrics.counter "archive_seals_total"
    ~help:"WAL generations sealed into the archive"

let m_seal_bytes =
  Metrics.counter "archive_bytes_total"
    ~help:"WAL bytes copied into the archive"

let m_backups =
  Metrics.counter "backups_total" ~help:"Online backups rendered (BACKUP TO)"

let m_restores =
  Metrics.counter "restores_total" ~help:"Backup restores completed"

exception Archive_error of string

let archive_error fmt = Format.kasprintf (fun s -> raise (Archive_error s)) fmt

(* --- Filesystem helpers (failpoint-armed) ------------------------------- *)

let ensure_dir dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    archive_error "ARCHIVE: %s is not a directory" dir

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* tmp + fsync + rename, so a crash mid-seal leaves either the old file
   or the new one; the three steps are the archive failpoint sites. *)
let write_file_atomic path content =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Failpoint.write ~site:"archive.write" fd (Bytes.of_string content);
      Failpoint.fsync ~site:"archive.fsync" fd);
  Failpoint.rename ~site:"archive.rename" tmp path

(* --- The chain manifest -------------------------------------------------- *)

let manifest_path dir = Filename.concat dir "manifest"
let segment_path dir gen = Filename.concat dir (Printf.sprintf "wal-%d" gen)

type segment = { seg_gen : int; seg_bytes : int; seg_crc : int32 }

let render_manifest segs =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "tiparchive 1\n";
  List.iter
    (fun s ->
      Printf.bprintf buf "seg %d %d %08lx\n" s.seg_gen s.seg_bytes s.seg_crc)
    segs;
  Buffer.contents buf

let parse_manifest text =
  match String.split_on_char '\n' text with
  | "tiparchive 1" :: rest ->
    List.filter_map
      (fun line ->
        if String.equal line "" then None
        else
          match String.split_on_char ' ' line with
          | [ "seg"; gen; bytes; crc ] -> (
            match
              ( int_of_string_opt gen,
                int_of_string_opt bytes,
                try Some (Int32.of_string ("0x" ^ crc)) with Failure _ -> None )
            with
            | Some g, Some b, Some c ->
              Some { seg_gen = g; seg_bytes = b; seg_crc = c }
            | _ -> archive_error "ARCHIVE_CORRUPT: bad manifest line %S" line)
          | _ -> archive_error "ARCHIVE_CORRUPT: bad manifest line %S" line)
      rest
  | _ -> archive_error "ARCHIVE_CORRUPT: bad manifest magic"

(* Rebuilds manifest entries from the segment files on disk — the
   self-healing path when the manifest is missing or unreadable (each
   segment's CRC is recomputable from its bytes). *)
let scan_segments dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun name ->
         if
           String.length name > 4
           && String.sub name 0 4 = "wal-"
           && not (Filename.check_suffix name ".tmp")
         then
           match int_of_string_opt (String.sub name 4 (String.length name - 4))
           with
           | Some gen ->
             let bytes = read_file (segment_path dir gen) in
             Some
               { seg_gen = gen;
                 seg_bytes = String.length bytes;
                 seg_crc = Wal.crc32 bytes }
           | None -> None
         else None)
  |> List.sort (fun a b -> Int.compare a.seg_gen b.seg_gen)

let load_manifest dir =
  let path = manifest_path dir in
  if not (Sys.file_exists path) then []
  else parse_manifest (read_file path)

(* Strict manifest for restore; lenient (rebuild from disk) for seal. *)
let load_manifest_lenient dir =
  match load_manifest dir with
  | segs -> segs
  | exception (Archive_error msg | Sys_error msg) ->
    Log.warn (fun m -> m "rebuilding archive manifest: %s" msg);
    scan_segments dir

(* --- Sealing ------------------------------------------------------------- *)

(* Copies the live log's bytes into the archive as generation [gen] and
   records it in the manifest. Idempotent: re-sealing a generation
   (recovery re-runs an interrupted checkpoint's seal) overwrites the
   segment and replaces its manifest entry — the re-sealed bytes are
   the recovered committed prefix, which is the only part a restore
   would have replayed anyway. Must run before the truncation it
   protects, under the same lock as the checkpoint. *)
let seal ~dir ~wal_path ~gen =
  Span.with_ Span.ArchiveSeal @@ fun () ->
  ensure_dir dir;
  let bytes = if Sys.file_exists wal_path then read_file wal_path else "" in
  write_file_atomic (segment_path dir gen) bytes;
  let entry =
    { seg_gen = gen; seg_bytes = String.length bytes; seg_crc = Wal.crc32 bytes }
  in
  let segs =
    load_manifest_lenient dir
    |> List.filter (fun s -> s.seg_gen <> gen)
    |> (fun l -> l @ [ entry ])
    |> List.sort (fun a b -> Int.compare a.seg_gen b.seg_gen)
  in
  write_file_atomic (manifest_path dir) (render_manifest segs);
  Metrics.incr m_seals;
  Metrics.add m_seal_bytes (String.length bytes);
  Log.info (fun m ->
      m "sealed generation %d (%d bytes) into %s" gen (String.length bytes) dir)

let sealed_generations dir =
  if Sys.file_exists (manifest_path dir) then
    List.map (fun s -> s.seg_gen) (load_manifest dir)
  else []

(* --- Online backup ------------------------------------------------------- *)

type origin = {
  o_gen : int; (* WAL generation the snapshot pairs with *)
  o_offset : int; (* end-of-log byte offset at render time *)
  o_epoch : int; (* promotion epoch *)
  o_asof : int option; (* newest commit instant folded into the base *)
}

let origin_string o =
  Printf.sprintf "tipbackup 1\ngen %d\noffset %d\nepoch %d\nasof %s\n" o.o_gen
    o.o_offset o.o_epoch
    (match o.o_asof with Some a -> string_of_int a | None -> "-")

let parse_origin text =
  let fields =
    String.split_on_char '\n' text
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' line with
           | [ k; v ] -> Some (k, v)
           | _ -> None)
  in
  let int_field k =
    match List.assoc_opt k fields with
    | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None -> archive_error "BACKUP_CORRUPT: bad %s stamp %S" k v)
    | None -> archive_error "BACKUP_CORRUPT: origin is missing its %s stamp" k
  in
  match String.split_on_char '\n' text with
  | "tipbackup 1" :: _ ->
    { o_gen = int_field "gen";
      o_offset = int_field "offset";
      o_epoch = int_field "epoch";
      o_asof =
        (match List.assoc_opt "asof" fields with
        | Some "-" | None -> None
        | Some v -> (
          match int_of_string_opt v with
          | Some a -> Some a
          | None -> archive_error "BACKUP_CORRUPT: bad asof stamp %S" v)) }
  | _ -> archive_error "BACKUP_CORRUPT: bad origin magic"

(* Writes a rendered backup — the caller produced (snapshot text, gen,
   offset, epoch, asof) consistently under the database lock. *)
let write_backup ~dir ~snapshot origin =
  ensure_dir dir;
  write_file_atomic (Filename.concat dir "snapshot") snapshot;
  write_file_atomic (Filename.concat dir "origin") (origin_string origin);
  Metrics.incr m_backups

let read_backup_origin ~dir =
  let path = Filename.concat dir "origin" in
  if not (Sys.file_exists path) then
    archive_error "BACKUP_CORRUPT: %s has no origin stamp (not a backup?)" dir;
  parse_origin (read_file path)

(* --- Restore / point-in-time recovery ------------------------------------ *)

type restore_info = {
  r_base_gen : int;
  r_epoch : int; (* epoch of the newest generation replayed *)
  r_segments : int; (* archived segments replayed *)
  r_tail_replayed : bool;
  r_applied_batches : int;
  r_applied_records : int; (* commit markers excluded *)
  r_last_commit_at : int option;
  r_reached_target : bool; (* replay stopped at the --until boundary *)
  r_missing_gens : int list; (* chain gaps skipped (never sealed) *)
}

(* Mutable replay state threaded through the chain walk. *)
type progress = {
  mutable p_batches : int;
  mutable p_records : int;
  mutable p_last_commit_at : int option;
}

(* Replays the committed batches of one generation's bytes starting at
   [pos], stopping cleanly at a torn/corrupt frame (the prefix the
   primary itself recovered onto) or — with [until] — just before the
   first commit stamped after the target. Returns [`More] to continue
   with the next generation, [`Target_reached], or [`Epoch_break]: a
   generation frame stamped with a different promotion epoch means a
   demote/re-bootstrap/promote cycle replaced this node's state outside
   the log, so the chain is discontinuous there and replay must not
   cross it. *)
let replay_bytes catalog ~bytes ~pos ~until ~expect_gen ~epoch progress =
  let pending = ref [] in
  let pos = ref pos in
  let outcome = ref `More in
  let running = ref true in
  while !running do
    match Wal.parse_frame bytes ~pos:!pos with
    | `Need_more -> running := false (* clean end (or torn tail) *)
    | `Corrupt msg ->
      Log.warn (fun m ->
          m "generation %d: replay stopped at byte %d: %s" expect_gen !pos msg);
      running := false
    | `Frame (record, next) -> (
      match record with
      | Wal.Generation { gen; epoch = e } ->
        if gen <> expect_gen then begin
          Log.warn (fun m ->
              m "generation %d: unexpected generation frame %d; stopping"
                expect_gen gen);
          running := false
        end
        else if e <> epoch then begin
          Log.warn (fun m ->
              m
                "generation %d carries epoch %d (chain is epoch %d): \
                 promotion discontinuity, replay stops here"
                gen e epoch);
          outcome := `Epoch_break;
          running := false
        end
        else pos := next
      | Wal.Commit at ->
        let past_target =
          match until, at with
          | Some target, Some instant -> instant > target
          | _ -> false
        in
        if past_target then begin
          outcome := `Target_reached;
          running := false
        end
        else begin
          (try
             List.iter (Wal.apply catalog) (List.rev !pending);
             progress.p_batches <- progress.p_batches + 1;
             progress.p_records <- progress.p_records + List.length !pending;
             match at with
             | Some _ -> progress.p_last_commit_at <- at
             | None -> ()
           with
          | Wal.Corrupt msg
          | Table.Constraint_violation msg
          | Catalog.Catalog_error msg
          | Schema.Schema_error msg ->
            Log.warn (fun m ->
                m "generation %d: replay stopped: %s" expect_gen msg);
            running := false);
          pending := [];
          pos := next
        end
      | record ->
        pending := record :: !pending;
        pos := next)
  done;
  !outcome

(* Restores a backup directory: base snapshot, then the archived chain,
   then the live tail, honouring [until] (unix seconds).
   @raise Archive_error with a typed message — [TARGET_TOO_OLD:] when
   the target instant predates the backup's base snapshot,
   [ARCHIVE_CORRUPT:] when a sealed segment fails its CRC. *)
let restore ~backup ?archive_dir ?tail ?until () =
  let origin = read_backup_origin ~dir:backup in
  (match until, origin.o_asof with
  | Some target, Some asof when target < asof ->
    archive_error
      "TARGET_TOO_OLD: target instant %d predates the backup's base snapshot \
       (asof %d); restore from an older backup"
      target asof
  | _ -> ());
  let snapshot_path = Filename.concat backup "snapshot" in
  if not (Sys.file_exists snapshot_path) then
    archive_error "BACKUP_CORRUPT: %s has no snapshot" backup;
  let catalog, _meta = Persist.load_meta snapshot_path in
  let segments =
    match archive_dir with None -> [] | Some dir -> load_manifest dir
  in
  let tail_scan_gen, tail_bytes =
    match tail with
    | Some path when Sys.file_exists path ->
      let bytes = read_file path in
      let scan = Wal.scan path in
      (scan.Wal.generation, Some bytes)
    | _ -> (None, None)
  in
  let last_gen =
    List.fold_left
      (fun acc s -> Stdlib.max acc s.seg_gen)
      (match tail_scan_gen with Some g -> g | None -> origin.o_gen)
      segments
  in
  let progress =
    { p_batches = 0; p_records = 0; p_last_commit_at = origin.o_asof }
  in
  let segments_replayed = ref 0 in
  let tail_replayed = ref false in
  let missing = ref [] in
  let reached = ref false in
  let segment_bytes s =
    match archive_dir with
    | None -> assert false
    | Some dir ->
      let bytes = read_file (segment_path dir s.seg_gen) in
      if String.length bytes <> s.seg_bytes || Wal.crc32 bytes <> s.seg_crc then
        archive_error
          "ARCHIVE_CORRUPT: segment wal-%d fails its manifest check (%d bytes \
           crc %08lx, manifest says %d bytes crc %08lx)"
          s.seg_gen (String.length bytes) (Wal.crc32 bytes) s.seg_bytes
          s.seg_crc;
      bytes
  in
  let gen = ref origin.o_gen in
  while not !reached && !gen <= last_gen do
    let g = !gen in
    (* the base generation resumes from the backup offset (a commit
       boundary by construction); later generations replay whole *)
    let pos = if g = origin.o_gen then origin.o_offset else 0 in
    let source =
      match List.find_opt (fun s -> s.seg_gen = g) segments with
      | Some s -> Some (segment_bytes s, `Segment)
      | None -> (
        match tail_scan_gen, tail_bytes with
        | Some tg, Some bytes when tg = g -> Some (bytes, `Tail)
        | _ -> None)
    in
    (match source with
    | None ->
      (* never sealed: the generation carried no commits (a crash
         between a checkpoint's snapshot rename and its truncation
         retires a generation that never had a log) — or the operator
         lost a segment; either way say so instead of silently gapping *)
      missing := g :: !missing;
      Log.warn (fun m -> m "generation %d missing from the chain; skipping" g)
    | Some (bytes, kind) -> (
      (match kind with
      | `Segment -> incr segments_replayed
      | `Tail -> tail_replayed := true);
      match
        replay_bytes catalog ~bytes ~pos ~until ~expect_gen:g
          ~epoch:origin.o_epoch progress
      with
      | `Target_reached -> reached := true
      | `Epoch_break -> gen := last_gen (* stop the walk; not the target *)
      | `More -> ()));
    incr gen
  done;
  Metrics.incr m_restores;
  ( catalog,
    { r_base_gen = origin.o_gen;
      r_epoch = origin.o_epoch;
      r_segments = !segments_replayed;
      r_tail_replayed = !tail_replayed;
      r_applied_batches = progress.p_batches;
      r_applied_records = progress.p_records;
      r_last_commit_at = progress.p_last_commit_at;
      r_reached_target = !reached;
      r_missing_gens = List.rev !missing } )
