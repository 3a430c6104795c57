(** Pull execution: a plan runs as a lazy row sequence.

    Every operator has one implementation. Leaf scans ([Seq_scan],
    [Index_scan] in key order, [Interval_scan]) are rid sources; [Filter],
    [Project] and the [Hash_join] probe run as fused chunk stages above a
    scan or above the row stream of any other operator. A chunk holds
    [min chunk_size n] rows of an [n]-row source, one row while
    failpoints are armed. Joins materialize only their build side;
    aggregation and sorting are blocking. The sequence must be consumed
    within the statement whose context created it (scans snapshot their
    rid list, but rows are shared). A statement runs on the calling
    domain. *)

open Tip_storage

exception Exec_error of string

(** Lazy row stream for a plan. *)
val run : Expr_eval.ctx -> Plan.t -> Value.t array Seq.t

(** [run] materialized to a list: the client-facing entry point. Counts
    the plan in [exec_queries_total] and charges each returned row to
    the statement's result-set budgets. *)
val collect : Expr_eval.ctx -> Plan.t -> Value.t array list

(** The table and rids a leaf scan ([Seq_scan], [Index_scan] in key
    order, [Interval_scan] ascending without duplicates, or a full
    {!Table.scan} once its window matches over half the table) reads:
    the pipeline's rid source.
    @raise Invalid_argument on any other operator. *)
val leaf_rids : Plan.t -> Table.t * Table.scan

(** Most rows a chunk holds (1024). *)
val chunk_size : int
