(** Volcano-style pull execution: a plan runs as a lazy row sequence.

    Scans, filters, projections and limits stream; joins materialize
    only their build side; aggregation and sorting are blocking. The
    sequence must be consumed within the statement whose context created
    it (scans snapshot their rid list, but rows are shared).

    {!collect_parallel} is the morsel-driven entry point: subtrees the
    planner marks parallel-safe ({!Plan.parallel_safe}) execute on the
    {!Exec_pool} domain pool and return exactly the rows the sequential
    path would, in the same order; everything else falls back to the
    sequential operators. An aggregate runs hash-partitioned: morsels
    route their rows by group key, then one pool task per partition folds
    its groups in input order with the sequential runners. *)

open Tip_storage

exception Exec_error of string

(** Lazy row stream for a plan (purely sequential). *)
val run : Expr_eval.ctx -> Plan.t -> Value.t array Seq.t

(** [run] materialized to a list. *)
val collect : Expr_eval.ctx -> Plan.t -> Value.t array list

(** Like {!collect}, but parallel-safe subtrees run as rid-range morsels
    on the domain pool. Bit-for-bit equivalent to {!collect}, float
    SUM/AVG included: each group is folded once, in input order. A
    failing parallel aggregate re-runs sequentially, so it raises the
    error {!collect} would. Falls back entirely to {!collect} when the
    pool is sequential ([TIP_PARALLEL=1] or one domain). *)
val collect_parallel : Expr_eval.ctx -> Plan.t -> Value.t array list

(** Leaf row-count threshold below which {!collect_parallel} stays
    sequential (default 1024; clamped to at least 1). Tests lower it to
    force tiny tables through the parallel machinery. *)
val set_min_parallel_rows : int -> unit

(** Rows per execution chunk on the batch and morsel paths (1024). *)
val chunk_size : int

(** Toggle batch-at-a-time execution (default on). When off, qualifying
    pipelines run through the row-at-a-time operators instead — the
    batch-vs-row differential fuzz and the bench's row-mode baseline use
    this. Armed failpoints disable the batch path implicitly so per-row
    poll counts stay exact. *)
val set_batch_enabled : bool -> unit

(** Leaf row-count threshold below which sequential batch dispatch keeps
    the row path (default 256): chunk setup costs more than it saves on
    a handful of rows. Tests lower it to force small tables through the
    batch kernels. *)
val set_batch_min_rows : int -> unit

(**/**)

(** One aggregate accumulator instance (exposed for tests). *)
type runner = { step : Value.t array -> unit; final : unit -> Value.t }

val make_runner : Expr_eval.ctx -> Plan.agg_spec -> runner
