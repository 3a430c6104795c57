(** Volcano-style pull execution: a plan runs as a lazy row sequence.

    Scans, filters, projections and limits stream; joins materialize
    only their build side; aggregation and sorting are blocking. The
    sequence must be consumed within the statement whose context created
    it (scans snapshot their rid list, but rows are shared). Chunkable
    pipelines ({!Plan.chunkable}) run chunk-at-a-time through fused
    kernels, everything else row-at-a-time; both return the same rows in
    the same order. A statement runs on the calling domain. *)

open Tip_storage

exception Exec_error of string

(** Lazy row stream for a plan. *)
val run : Expr_eval.ctx -> Plan.t -> Value.t array Seq.t

(** [run] materialized to a list: the client-facing entry point. Counts
    the plan in [exec_queries_total] and charges each returned row to
    the statement's result-set budgets. *)
val collect : Expr_eval.ctx -> Plan.t -> Value.t array list

(** The rids an interval scan visits, ascending and without duplicates
    (every live rid once the probe window matches over half the
    table). *)
val interval_rids :
  Table.t -> Interval_index.t -> lo:int -> hi:int -> int array

(** Rows per execution chunk on the batch path (1024). *)
val chunk_size : int

(** Toggle batch-at-a-time execution (default on). When off, qualifying
    pipelines run through the row-at-a-time operators instead — the
    batch-vs-row differential fuzz and the bench's row-mode baseline use
    this. Armed failpoints disable the batch path implicitly so per-row
    poll counts stay exact. *)
val set_batch_enabled : bool -> unit

(** Leaf row-count threshold below which batch dispatch keeps the row
    path (default 256): chunk setup costs more than it saves on a
    handful of rows. Tests lower it to force small tables through the
    batch kernels. *)
val set_batch_min_rows : int -> unit

(**/**)

(** One aggregate accumulator instance (exposed for tests). *)
type runner = { step : Value.t array -> unit; final : unit -> Value.t }

val make_runner : Expr_eval.ctx -> Plan.agg_spec -> runner
