(** Lightweight per-statement tracing.

    A trace is a tree of spans. [Database.exec] opens the root span for
    each statement (annotated with the NOW chronon bound for that
    statement — bound exactly once, at root-span open); planner and
    executor phases open children with [with_span].

    Spans record wall-clock nanoseconds ([now_ns]). A trace belongs to
    one statement and lives in no global: the engine passes it to the
    phases that annotate it and hands the finished root back to its
    caller. The trace owner drives the span stack from a single thread;
    only the finished tree is safe to share. *)

val now_ns : unit -> int
(** Current time in integer nanoseconds (wall clock; microsecond
    resolution — the finest clock available without extra deps). *)

type span = {
  sp_name : string;
  mutable sp_attrs : (string * string) list; (* newest first *)
  mutable sp_start_ns : int; (* wall-clock ns when the span opened *)
  mutable sp_elapsed_ns : int; (* set when the span closes *)
  mutable sp_children : span list; (* in start order once closed *)
}

type t

val start : string -> t
(** [start name] begins a trace whose root span is [name]. *)

val root : t -> span

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a child span of the innermost open span. *)

val annotate : t -> string -> string -> unit
(** Attach a key/value attribute to the innermost open span. *)

val finish : t -> span
(** Close the root span (and any spans left open) and return the tree. *)

val children : span -> span list
(** Closed children in start order. *)

val find_child : span -> string -> span option

val render : span -> string
(** Indented text rendering of a finished span tree, e.g.
    {v statement (1.234 ms) [now=2001-06-01]
      plan (0.021 ms)
      execute (1.102 ms) v} *)

(** {1 Chrome trace-event export}

    Finished span trees serialize to the Chrome trace-event JSON format
    (an array of complete ["ph":"X"] events with microsecond [ts]/[dur]
    relative to the root), loadable directly in [about:tracing] and
    Perfetto. *)

val to_chrome_json : span -> string

val trace_dir : unit -> string option
(** The export directory: seeded from [TIP_TRACE_DIR], overridden by
    {!set_trace_dir} (e.g. [tip_serve --trace-dir]). [None] disables
    export. *)

val set_trace_dir : string option -> unit

val export_chrome : span -> string option
(** Writes the span tree as one [trace-<ms>-<seq>.json] file in the
    configured directory, creating it if needed. Returns the path, or
    [None] when no directory is configured or the write fails (export
    must never take down the statement it observed). *)
