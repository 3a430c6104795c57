(** The append-only write-ahead log (DESIGN.md §8).

    Records are framed as [tipwal <len> <crc32>\n<payload>\n] so a torn
    tail — short header, short payload or CRC mismatch — is always
    distinguishable from a valid record, and replay stops cleanly at the
    last intact frame instead of failing. Cell payloads reuse the
    snapshot round-trip format ({!Persist}), so NOW-relative timestamps
    stay symbolic in the log.

    Each committed statement's records are appended together with a
    trailing {!constructor-Commit} marker in one write; replay applies a
    batch only after reading its marker, so recovery always lands on a
    statement boundary. A leading {!constructor-Generation} frame pairs
    the log with the snapshot of the same generation and lets recovery
    reject a stale log left by a crash mid-checkpoint. *)

(** IEEE 802.3 CRC32 of the whole string. *)
val crc32 : string -> int32

(** Redo records. Cell arrays hold values already serialized through
    {!Persist.serialize_value}; [Delete]/[Update] identify their target
    row by full-row equality (the engine has no stable physical row ids
    across snapshot reload). *)
type record =
  | Generation of { gen : int; epoch : int }
      (** [epoch] is the promotion epoch (DESIGN.md §15): bumped when a
          replica is promoted to primary, so a stale pre-promotion
          stream can be fenced. Pre-HA logs decode as epoch 0. *)
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
      column : string;  (** partition column name *)
      parts : (string * (int * int) option) list;
          (** partition name, [Some (from, to)] chronon range or [None]
              for DEFAULT — the {!Catalog.create_partitioned} shape *)
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
      (** the commit instant in unix seconds — the transaction time that
          point-in-time recovery stops on. [None] when decoded from a
          pre-HA bare [commit] marker. *)

(** A damaged frame or a record that does not fit the catalog. {!scan}
    never lets it escape; {!apply} raises it. *)
exception Corrupt of string

(** {1 Appending} *)

(** When [commit] makes records crash-proof: [Always] fsyncs every
    commit before returning, [Every_n n] fsyncs every n-th commit,
    [Never] leaves syncing to the OS. *)
type sync_policy = Always | Every_n of int | Never

(** Parses "always", "never" or "every=N" (N > 0). *)
val sync_policy_of_string : string -> sync_policy option

type writer

(** Creates (or truncates) the log at [path], stamped with generation
    [gen] (and promotion epoch [epoch], default 0) and fsynced. *)
val create : ?sync:sync_policy -> ?epoch:int -> gen:int -> string -> writer

(** Appends the records plus a commit marker — stamped with the commit
    instant [at] (unix seconds) when given — in one write, then syncs
    per the policy. Under [Always], once this returns the batch survives
    any crash. *)
val commit : ?at:int -> writer -> record list -> unit

(** Records appended since the writer was created or last truncated
    (commit markers included) — the checkpoint trigger. *)
val record_count : writer -> int

(** Bytes written since the writer was created or last truncated — the
    current end-of-log position a replication subscriber resumes from.
    Resets to 0 (then grows past the generation frame) on {!truncate}. *)
val offset : writer -> int

(** Whether an [Every_n] writer is holding commits it has not yet
    fsynced — the tail a clean shutdown or checkpoint must flush. *)
val pending_sync : writer -> bool

(** Empties the log and stamps the new generation (the second half of a
    checkpoint; the snapshot carrying [gen] must already be renamed into
    place). [epoch] bumps the writer's promotion epoch — only a replica
    promotion passes it. *)
val truncate : ?epoch:int -> writer -> gen:int -> unit

(** Forces an fsync regardless of policy. *)
val sync : writer -> unit

(** Closes the fd. Never flushes (appends are unbuffered), so closing
    after a simulated crash does not alter the on-disk state. *)
val close : writer -> unit

(** {1 Reading and replay} *)

type scan = {
  generation : int option;  (** the leading generation frame, if any *)
  epoch : int;  (** its promotion epoch (0 when absent or pre-HA) *)
  batches : record list list;
      (** committed batches, oldest first; each batch ends with its
          {!constructor-Commit} marker so callers can read the commit
          instant *)
  stopped : string option;
      (** why reading stopped before a clean end of file *)
}

(** Reads the whole log, stopping cleanly at the first torn or corrupt
    frame; an uncommitted trailing batch is discarded. Never raises on
    damaged input; a missing file reads as empty. *)
val scan : string -> scan

(** Incrementally parses one frame out of [buf] starting at [pos] —
    the replication receiver's entry point. [`Frame (r, next)] yields
    the record and the position just past its frame; [`Need_more]
    means the buffer holds only a prefix of a frame; [`Corrupt] is
    damage (bad header, CRC mismatch, unparseable payload). Never
    raises. *)
val parse_frame :
  string -> pos:int -> [ `Frame of record * int | `Need_more | `Corrupt of string ]

(** Applies one record to the catalog (replay path — bypasses the
    engine, so history shadow tables are not re-maintained; their
    mutations appear as their own records).
    @raise Corrupt when the record does not fit the catalog. *)
val apply : Catalog.t -> record -> unit

(**/**)

val encode : record -> string
val decode : string -> record
val frame : record -> string
