(* Incremental replay of a shipped WAL stream into a catalog.

   The primary ships raw WAL bytes from a subscription offset; this
   module buffers them, cuts them into CRC-checked frames
   ([Wal.parse_frame]), and applies whole committed batches only. The
   confirmed position ([applied_offset]) advances exclusively at commit
   boundaries: a torn tail, a half-received batch, or a corrupt frame
   never moves it, so after any disconnect the subscriber resumes from
   the last statement boundary and the pending fragment is simply
   re-shipped. This mirrors single-node recovery — [Wal.scan] discards
   an uncommitted trailing batch; here the discard happens per
   reconnect instead of per restart.

   Generation frames are the divergence guard: the stream is only
   meaningful against the snapshot generation the replica bootstrapped
   from, so a mismatched generation frame (the primary checkpointed and
   truncated its log) surfaces as [Apply_failed] and the caller must
   re-bootstrap from a fresh snapshot instead of replaying records onto
   the wrong base state. The frame's epoch is fenced the same way: a
   frame stamped with a different promotion epoch means a failover
   happened around this stream and its history may have diverged.

   The unconfirmed buffer is capped: a stream that keeps shipping
   records without ever reaching a commit boundary (a runaway batch, a
   malicious or corrupt primary) would otherwise grow [buf] without
   bound. Overflow is classified [Stream_corrupt] — a well-formed
   primary commits every statement, so a batch larger than the cap is
   not something replay can ever confirm.

   Thread safety: none here — the replication client serializes [feed]
   with reads under the database lock. *)

module Metrics = Tip_obs.Metrics

let m_records =
  Metrics.counter "repl_apply_records_total"
    ~help:"Redo records applied from the replication stream"

let m_batches =
  Metrics.counter "repl_apply_batches_total"
    ~help:"Committed batches applied from the replication stream"

let m_bytes =
  Metrics.counter "repl_apply_bytes_total"
    ~help:"Stream bytes confirmed applied (commit boundaries only)"

type error = Stream_corrupt of string | Apply_failed of string

let default_max_pending = 16 * 1024 * 1024

type t = {
  catalog : Catalog.t;
  mutable generation : int;
  mutable epoch : int; (* promotion epoch the stream must carry *)
  max_pending : int; (* cap on [buf] (received, unconfirmed bytes) *)
  mutable buf : string; (* received, unconfirmed bytes *)
  mutable parsed : int; (* prefix of [buf] already cut into [pending] *)
  mutable pending : Wal.record list; (* current batch, newest first *)
  mutable applied_offset : int; (* confirmed WAL byte position *)
  mutable applied_commits : int;
  mutable last_commit_at : int option; (* newest applied commit instant *)
}

let create ?(max_pending = default_max_pending) catalog ~generation ~epoch
    ~offset =
  { catalog;
    generation;
    epoch;
    max_pending;
    buf = "";
    parsed = 0;
    pending = [];
    applied_offset = offset;
    applied_commits = 0;
    last_commit_at = None }

let generation t = t.generation
let epoch t = t.epoch
let applied_offset t = t.applied_offset
let applied_commits t = t.applied_commits
let last_commit_at t = t.last_commit_at
let catalog t = t.catalog

(* Drops any half-received batch; the confirmed state is untouched.
   Called on reconnect before resuming from [applied_offset]. *)
let reset_stream t =
  t.buf <- "";
  t.parsed <- 0;
  t.pending <- []

(* Points the replica at a fresh base state (a new snapshot bootstrap):
   new generation/epoch, new confirmed offset, stream buffer cleared.
   The catalog contents are swapped by the caller ([Catalog.assign]). *)
let rebase t ~generation ~epoch ~offset =
  t.generation <- generation;
  t.epoch <- epoch;
  t.applied_offset <- offset;
  reset_stream t

let err e = Error e

(* Confirms [upto] bytes of [buf] as applied: advance the offset and
   compact the buffer so it only ever holds the open batch. *)
let confirm t upto =
  t.applied_offset <- t.applied_offset + upto;
  Metrics.add m_bytes upto;
  t.buf <- String.sub t.buf upto (String.length t.buf - upto);
  t.parsed <- 0;
  t.pending <- []

let apply_batch t records =
  Failpoint.hit ~site:"repl.apply" ();
  List.iter (Wal.apply t.catalog) records;
  t.applied_commits <- t.applied_commits + 1;
  Metrics.incr m_batches;
  Metrics.add m_records (List.length records)

let feed t bytes =
  if String.length bytes > 0 then t.buf <- t.buf ^ bytes;
  if String.length t.buf > t.max_pending then
    err
      (Stream_corrupt
         (Printf.sprintf
            "pending stream tail exceeds %d bytes without a commit boundary"
            t.max_pending))
  else
    let rec step () =
      match Wal.parse_frame t.buf ~pos:t.parsed with
      | `Need_more -> Ok ()
      | `Corrupt msg -> err (Stream_corrupt msg)
      | `Frame (record, next) -> (
        match record with
        | Wal.Generation { gen; epoch } ->
          if t.pending <> [] then
            err (Stream_corrupt "generation frame inside an open batch")
          else if epoch <> t.epoch then
            err
              (Apply_failed
                 (Printf.sprintf
                    "epoch changed (have %d, stream is %d): a promotion \
                     happened around this stream"
                    t.epoch epoch))
          else if gen <> t.generation then
            err
              (Apply_failed
                 (Printf.sprintf "generation changed (have %d, stream is %d)"
                    t.generation gen))
          else begin
            confirm t next;
            step ()
          end
        | Wal.Commit at -> (
          let batch = List.rev t.pending in
          match apply_batch t batch with
          | () ->
            (match at with Some _ -> t.last_commit_at <- at | None -> ());
            confirm t next;
            step ()
          | exception Wal.Corrupt msg -> err (Apply_failed msg)
          | exception Catalog.Catalog_error msg -> err (Apply_failed msg))
        | record ->
          t.pending <- record :: t.pending;
          t.parsed <- next;
          step ())
    in
    step ()
