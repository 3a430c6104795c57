(** Physical query plans: a tree of operators whose expressions are
    already compiled to closures. {!Executor.run} turns a plan into a row
    sequence, running leaf scans, [Filter], [Project] and the [Hash_join]
    probe as fused chunk stages; each node carries a label so EXPLAIN
    can print the tree without decompiling closures. *)

open Tip_storage
module Ast = Tip_sql.Ast

type agg_impl =
  | Agg_count_star
  | Agg_count
  | Agg_sum
  | Agg_avg
  | Agg_min
  | Agg_max
  | Agg_user of Extension.aggregate * string  (** registered name *)

type agg_spec = {
  impl : agg_impl;
  arg : Expr_eval.compiled option;  (** [None] only for count-star *)
  distinct : bool;  (** aggregate over distinct argument values *)
  agg_label : string;
}

(** Per-operator runtime counters recorded by [Instrument] wrappers
    (EXPLAIN ANALYZE). *)
type op_stats = { mutable actual_rows : int; mutable actual_ns : int }

type t =
  | Seq_scan of { table : Table.t; label : string }
  | Index_scan of {
      table : Table.t;
      btree : Btree.t;
      lo : Btree.bound;
      hi : Btree.bound;
      label : string;
    }  (** B+tree range scan; conjuncts recheck above *)
  | Interval_scan of {
      table : Table.t;
      index : Interval_index.t;
      lo : int;
      hi : int;
      label : string;
    }  (** candidate rows whose extents intersect the probe window *)
  | Filter of {
      input : t;
      pred : Expr_eval.compiled;
      bpred : Expr_eval.batch_pred;
          (** the chunk kernel the executor runs for [pred]: the fused
              {!Expr_eval.compile_batch} kernel, or
              [Expr_eval.batch_of_predicate pred]; [pred] itself is the
              row-at-a-time reference the tests evaluate *)
      label : string;
    }
  | Nested_loop of { left : t; right : t }  (** cross product *)
  | Hash_join of {
      left : t;
      right : t;
      left_keys : Expr_eval.compiled list;
      right_keys : Expr_eval.compiled list;
      build_left : bool;
          (** cost-chosen build side: [false] builds on the right and
              streams the left (the historical default) *)
      label : string;
    }  (** equi-join *)
  | Left_outer_join of {
      left : t;
      right : t;
      on : Expr_eval.compiled;
      right_width : int;  (** columns to NULL-pad for unmatched rows *)
      label : string;
    }
  | Project of {
      input : t;
      exprs : Expr_eval.compiled array;
      names : string array;
    }
  | Aggregate of {
      input : t;
      keys : Expr_eval.compiled list;
      aggs : agg_spec list;
      label : string;
    }  (** output rows are [keys @ aggregate results] *)
  | Sort of {
      input : t;
      by : (Expr_eval.compiled * Ast.order_direction) list;
      label : string;
    }
  | Distinct of t  (** order-preserving (first occurrence wins) *)
  | Limit of { input : t; limit : int option; offset : int option }
  | Append of t list  (** concatenation of same-arity inputs (UNION ALL) *)
  | Partition_scan of {
      parent : string;  (** partitioned table name *)
      children : t list;
          (** one pipeline per surviving partition (scan plus
              pushed-down recheck filter), declared order *)
      total : int;  (** partitions declared *)
      pruned : int;
      label : string;
    }
      (** pruned scan over a range-partitioned table; EXPLAIN renders
          [partitions=kept/total pruned=n]. The executor concatenates
          the children, each its own chunk pipeline
          (partition-wise consumption). *)
  | One_row  (** FROM-less SELECT produces a single empty row *)
  | Virtual_scan of {
      vt_name : string;
      produce : unit -> Value.t array list;
      label : string;
    }
      (** snapshot of a registered virtual table ({!Vtab}) *)
  | Instrument of { input : t; stats : op_stats }
      (** transparent wrapper recording actual rows and wall time; the
          executor sees through it *)

val instrument : t -> t
(** Wrap every operator in the tree with an [Instrument] node
    (idempotent; used only by the EXPLAIN ANALYZE path). *)

(** Indented tree rendering, as shown by EXPLAIN. *)
val pp : ?indent:int -> Format.formatter -> t -> unit

val to_string : t -> string
