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

(** A damaged frame or a record that does not fit the catalog.
    {!replay} never lets it escape; {!apply} raises it. *)
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

(** {1 Reading and replay}

    Every reader of the log drives the same two functions: crash
    recovery over the log file ({!Recovery}), a replica over the bytes
    it was shipped ({!Replica}) and a restore over archived segments
    ({!Archive}). {!parse_frame} is the only frame parser and {!replay}
    the only loop that applies batches, so commit boundaries,
    generation checks and apply failures follow one set of rules. *)

(** Parses one frame out of [buf] starting at [pos]. [`Frame (r, next)]
    yields the record and the position just past its frame;
    [`Need_more] means the buffer holds only a prefix of a frame;
    [`Corrupt] is damage (bad header, CRC mismatch, unparseable
    payload). Never raises. *)
val parse_frame :
  string -> pos:int -> [ `Frame of record * int | `Need_more | `Corrupt of string ]

(** The log's leading generation frame: [Some (gen, epoch, next)], with
    [next] the offset just past it. [None] when the log is empty or
    does not start with an intact generation frame. *)
val leading_generation : string -> (int * int * int) option

(** Why {!replay} returned. *)
type stop =
  | End  (** every byte was cut into whole frames *)
  | Torn
      (** the input ends inside a frame: a torn tail on disk, or bytes
          of a stream still in flight *)
  | Bad_frame of string
      (** a damaged frame, or a generation frame inside an open batch *)
  | Apply_failed of string
      (** a committed batch does not fit the catalog: {!Corrupt},
          [Table.Constraint_violation], [Catalog.Catalog_error] or
          [Schema.Schema_error]; the batch may be partly applied *)
  | Generation_frame of { gen : int; epoch : int }
      (** a generation frame other than the one the reader expects *)
  | Past_target  (** the next commit is stamped after [until] *)

(** One reader's position and progress, kept across {!replay} calls:
    the next byte to cut, the last commit boundary, the records of the
    batch still open past it, and the applied counts. *)
type cursor

(** A cursor at byte [pos], with [last_commit_at] as the seed instant. *)
val cursor : ?last_commit_at:int -> int -> cursor

(** Points the cursor at byte [pos] of a new input and drops its open
    batch; the counts carry on. *)
val seek : cursor -> int -> unit

(** Shifts the cursor after its reader dropped the first [n] bytes of
    the input, [n] at most {!boundary}: the open batch is kept.
    @raise Invalid_argument when [n] is negative or past the boundary. *)
val drop_prefix : cursor -> int -> unit

(** The cursor's progress: the next byte {!replay} cuts; the boundary
    just past the last applied commit marker or accepted generation
    frame, before which every batch is applied; the batches and records
    (commit markers excluded) applied; the newest stamped commit
    applied, else the seed instant. *)
val position : cursor -> int
val boundary : cursor -> int
val batches : cursor -> int
val records : cursor -> int
val last_commit_at : cursor -> int option

(** Cuts frames from [bytes] at the cursor and applies each batch to
    [catalog] when its {!constructor-Commit} marker is cut, until the
    bytes run out or a {!stop} other than [End]/[Torn] ends it. A
    generation frame must carry [gen] and [epoch]. With [until], it
    stops before the first commit stamped after that instant.
    [before_batch] runs before each batch is applied. After [End] or
    [Torn] the call can be repeated over a longer [bytes] with the same
    prefix: the open batch is kept, and no frame is cut twice.
    Exceptions other than the four classified as [Apply_failed] escape,
    [before_batch]'s included. *)
val replay :
  ?until:int ->
  ?before_batch:(unit -> unit) ->
  Catalog.t ->
  cursor ->
  gen:int ->
  epoch:int ->
  string ->
  stop

(** Why replay stopped short of the input's end, for logs and
    diagnostics: [None] for [End] and [Past_target]. *)
val stop_reason : stop -> string option

(** Applies one record to the catalog (replay path — bypasses the
    engine, so history shadow tables are not re-maintained; their
    mutations appear as their own records).
    @raise Corrupt when the record does not fit the catalog. *)
val apply : Catalog.t -> record -> unit

(**/**)

val encode : record -> string
val decode : string -> record
val frame : record -> string
