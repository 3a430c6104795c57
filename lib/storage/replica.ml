(* Incremental replay of a shipped WAL stream into a catalog.

   The primary ships raw WAL bytes from a subscription offset; this
   module buffers them and hands the buffer to [Wal.replay], the loop
   crash recovery and restore also drive, which cuts CRC-checked
   frames and applies whole committed batches only. The confirmed
   position ([applied_offset]) advances exclusively at commit
   boundaries: a torn tail, a half-received batch, or a corrupt frame
   never moves it, so after any disconnect the subscriber resumes from
   the last statement boundary and the pending fragment is simply
   re-shipped. Recovery discards an uncommitted trailing batch per
   restart; here the discard happens per reconnect. The buffer is
   compacted to the last commit boundary once per [feed], and the
   replay cursor keeps the open batch's records, so no frame is cut
   twice however the stream is chunked.

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
  mutable buf : string; (* received bytes past the last commit boundary *)
  cursor : Wal.cursor; (* replay position in [buf], and the counts *)
  mutable applied_offset : int; (* confirmed WAL byte position *)
}

let create ?(max_pending = default_max_pending) catalog ~generation ~epoch
    ~offset =
  { catalog;
    generation;
    epoch;
    max_pending;
    buf = "";
    cursor = Wal.cursor 0;
    applied_offset = offset }

let generation t = t.generation
let epoch t = t.epoch
let applied_offset t = t.applied_offset
let applied_commits t = Wal.batches t.cursor
let last_commit_at t = Wal.last_commit_at t.cursor
let catalog t = t.catalog

(* Drops any half-received batch; the confirmed state is untouched.
   Called on reconnect before resuming from [applied_offset]. *)
let reset_stream t =
  t.buf <- "";
  Wal.seek t.cursor 0

(* Points the replica at a fresh base state (a new snapshot bootstrap):
   new generation/epoch, new confirmed offset, stream buffer cleared.
   The catalog contents are swapped by the caller ([Catalog.assign]). *)
let rebase t ~generation ~epoch ~offset =
  t.generation <- generation;
  t.epoch <- epoch;
  t.applied_offset <- offset;
  reset_stream t

(* Confirms every byte before the cursor's commit boundary: advance the
   offset and compact the buffer so it only holds the open batch. *)
let confirm t =
  let upto = Wal.boundary t.cursor in
  if upto > 0 then begin
    t.applied_offset <- t.applied_offset + upto;
    Metrics.add m_bytes upto;
    t.buf <- String.sub t.buf upto (String.length t.buf - upto);
    Wal.drop_prefix t.cursor upto
  end

let feed t bytes =
  if String.length bytes > 0 then t.buf <- t.buf ^ bytes;
  if String.length t.buf > t.max_pending then
    Error
      (Stream_corrupt
         (Printf.sprintf
            "pending stream tail exceeds %d bytes without a commit boundary"
            t.max_pending))
  else begin
    let c = t.cursor in
    let batches = Wal.batches c and records = Wal.records c in
    let stop =
      (* a crash injected between batches still confirms the ones
         before it *)
      Fun.protect
        ~finally:(fun () -> confirm t)
        (fun () ->
          Wal.replay
            ~before_batch:(fun () -> Failpoint.hit ~site:"repl.apply" ())
            t.catalog c ~gen:t.generation ~epoch:t.epoch t.buf)
    in
    Metrics.add m_batches (Wal.batches c - batches);
    Metrics.add m_records (Wal.records c - records);
    match stop with
    | Wal.End | Wal.Torn | Wal.Past_target -> Ok ()
    | Wal.Bad_frame msg -> Error (Stream_corrupt msg)
    | Wal.Apply_failed msg -> Error (Apply_failed msg)
    | Wal.Generation_frame { epoch; _ } when epoch <> t.epoch ->
      Error
        (Apply_failed
           (Printf.sprintf
              "epoch changed (have %d, stream is %d): a promotion happened \
               around this stream"
              t.epoch epoch))
    | Wal.Generation_frame { gen; _ } ->
      Error
        (Apply_failed
           (Printf.sprintf "generation changed (have %d, stream is %d)"
              t.generation gen))
  end
