(** Bounded statement-fingerprint store (the backing of the
    [tip_stat_statements] virtual table).

    Keys are normalized statement shapes produced by the caller (the
    engine uses [Tip_sql.Lexer.fingerprint_tokens]); this module never parses
    SQL. Each key aggregates calls, latency (total/min/max plus a
    private fixed-bucket histogram aligned with {!Metrics.bounds} for
    percentile estimation), rows returned/scanned, error and
    cancellation counts.

    The store holds at most {!capacity} shapes; a new shape arriving at
    capacity evicts the least-recently-updated entry. Updates take one
    process-wide mutex — statements execute serially per database, so
    the lock is effectively uncontended (benchmark E20 bounds the cost).

    Recording follows {!Switch}; the default capacity of 512 is
    overridden by [TIP_STAT_STATEMENTS_CAP]. *)

type outcome = Finished | Errored | Cancelled

(** Aggregated row for one statement shape (a read-only copy). *)
type stat = {
  query : string;  (** the normalized statement text *)
  calls : int;
  total_ns : int;
  min_ns : int;
  max_ns : int;
  rows_returned : int;
  rows_scanned : int;
  errors : int;
  cancelled : int;
  buckets : int array;
      (** non-cumulative latency buckets aligned with
          {!Metrics.bucket_labels}; feed to
          {!Metrics.percentile_of_buckets} *)
}

val record :
  query:string ->
  elapsed_ns:int ->
  rows_returned:int ->
  rows_scanned:int ->
  outcome ->
  unit
(** Folds one execution into the entry for [query] (creating or
    evicting as needed). No-op while {!Switch} is off. *)

val snapshot : unit -> stat list
(** Copies of every entry, sorted by descending total time. *)

val size : unit -> int
(** Number of distinct shapes currently held. *)

val reset : unit -> unit
(** Drops every entry (tests and benchmarks). *)

val capacity : unit -> int

val set_capacity : int -> unit
(** Sets the bound, evicting LRU entries if currently above it.
    @raise Invalid_argument on a non-positive capacity. *)
