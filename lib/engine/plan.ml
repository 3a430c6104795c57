(* Physical query plans.

   A plan is a tree of operators whose expressions are already compiled
   to closures; [Executor.run] turns it into a row sequence, running
   scans, filters, projections and hash-join probes as chunk stages.
   Each node carries a human-readable label so EXPLAIN can print the
   tree without decompiling closures. *)

open Tip_storage
module Ast = Tip_sql.Ast

type agg_impl =
  | Agg_count_star
  | Agg_count
  | Agg_sum
  | Agg_avg
  | Agg_min
  | Agg_max
  | Agg_user of Extension.aggregate * string (* registered name *)

type agg_spec = {
  impl : agg_impl;
  arg : Expr_eval.compiled option; (* None only for count-star *)
  distinct : bool; (* aggregate over distinct argument values *)
  agg_label : string;
}

(* Per-operator runtime counters for EXPLAIN ANALYZE, read by the
   renderer after execution finishes. *)
type op_stats = { mutable actual_rows : int; mutable actual_ns : int }

let fresh_stats () = { actual_rows = 0; actual_ns = 0 }

type t =
  | Seq_scan of { table : Table.t; label : string }
  | Index_scan of {
      table : Table.t;
      btree : Btree.t;
      lo : Btree.bound;
      hi : Btree.bound;
      label : string;
    }
  | Interval_scan of {
      table : Table.t;
      index : Interval_index.t;
      lo : int;
      hi : int;
      label : string;
    }
  | Filter of {
      input : t;
      pred : Expr_eval.compiled;
      bpred : Expr_eval.batch_pred;
        (* the chunk kernel the executor runs for [pred]: fused by the
           planner, or [batch_of_predicate pred] (HAVING, AS OF) *)
      label : string;
    }
  | Nested_loop of { left : t; right : t }
  | Hash_join of {
      left : t;
      right : t;
      left_keys : Expr_eval.compiled list;
      right_keys : Expr_eval.compiled list;
      build_left : bool;
        (* cost-chosen build side: false builds on the right and streams
           the left (the historical default), true the reverse *)
      label : string;
    }
  | Left_outer_join of {
      left : t;
      right : t;
      on : Expr_eval.compiled;
      right_width : int;
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
    }
  | Sort of {
      input : t;
      by : (Expr_eval.compiled * Ast.order_direction) list;
      label : string;
    }
  | Distinct of t
  | Limit of { input : t; limit : int option; offset : int option }
  | Append of t list (* concatenation of same-arity inputs (UNION ALL) *)
  | Partition_scan of {
      parent : string; (* partitioned table name *)
      children : t list;
        (* one pipeline per surviving partition (scan plus pushed-down
           recheck filter), declared order; pruned partitions are absent *)
      total : int; (* partitions declared *)
      pruned : int;
      label : string;
    }
  | One_row (* FROM-less SELECT produces a single empty row *)
  | Virtual_scan of {
      vt_name : string;
      produce : unit -> Value.t array list;
      label : string;
    }
    (* snapshot of a registered virtual table (the tip_stat relations) *)
  | Instrument of { input : t; stats : op_stats }
    (* transparent wrapper recording actual rows / time (EXPLAIN ANALYZE) *)

(* Wrap every operator with an [Instrument] node (EXPLAIN ANALYZE).
   Only the analyze path does this, so the planner and the plain
   executor never see wrapper nodes. Idempotent. *)
let rec instrument plan =
  match plan with
  | Instrument _ -> plan
  | _ ->
    let input =
      match plan with
      | Seq_scan _ | Index_scan _ | Interval_scan _ | One_row
      | Virtual_scan _ ->
        plan
      | Filter r -> Filter { r with input = instrument r.input }
      | Nested_loop { left; right } ->
        Nested_loop { left = instrument left; right = instrument right }
      | Hash_join r ->
        Hash_join { r with left = instrument r.left; right = instrument r.right }
      | Left_outer_join r ->
        Left_outer_join
          { r with left = instrument r.left; right = instrument r.right }
      | Project r -> Project { r with input = instrument r.input }
      | Aggregate r -> Aggregate { r with input = instrument r.input }
      | Sort r -> Sort { r with input = instrument r.input }
      | Distinct p -> Distinct (instrument p)
      | Limit r -> Limit { r with input = instrument r.input }
      | Append ps -> Append (List.map instrument ps)
      | Partition_scan r ->
        Partition_scan { r with children = List.map instrument r.children }
      | Instrument _ -> assert false
    in
    Instrument { input; stats = fresh_stats () }

(* [Instrument] wrappers render as a suffix on the operator they wrap,
   e.g. "SeqScan m (actual rows=50000 time=0.812 ms)". *)
let stats_note stats =
  Printf.sprintf " (actual rows=%d time=%.3f ms)" stats.actual_rows
    (float_of_int stats.actual_ns /. 1e6)

let rec pp ?(indent = 0) ppf plan = pp_suffix ~indent ~suffix:"" ppf plan

and pp_suffix ~indent ~suffix ppf plan =
  let pad ppf () = Fmt.string ppf (String.make (indent * 2) ' ') in
  let child = indent + 1 in
  match plan with
  | Instrument { input; stats } ->
    pp_suffix ~indent ~suffix:(suffix ^ stats_note stats) ppf input
  | Seq_scan { table; label } ->
    Fmt.pf ppf "%aSeqScan %s%s%s@." pad () (Table.name table) label suffix
  | Index_scan { table; label; _ } ->
    Fmt.pf ppf "%aIndexScan %s %s%s@." pad () (Table.name table) label suffix
  | Interval_scan { table; label; _ } ->
    Fmt.pf ppf "%aIntervalScan %s %s%s@." pad () (Table.name table) label suffix
  | Filter { input; label; _ } ->
    Fmt.pf ppf "%aFilter %s%s@." pad () label suffix;
    pp ~indent:child ppf input
  | Nested_loop { left; right } ->
    Fmt.pf ppf "%aNestedLoop%s@." pad () suffix;
    pp ~indent:child ppf left;
    pp ~indent:child ppf right
  | Hash_join { left; right; label; _ } ->
    Fmt.pf ppf "%aHashJoin %s%s@." pad () label suffix;
    pp ~indent:child ppf left;
    pp ~indent:child ppf right
  | Left_outer_join { left; right; label; _ } ->
    Fmt.pf ppf "%aLeftOuterJoin %s%s@." pad () label suffix;
    pp ~indent:child ppf left;
    pp ~indent:child ppf right
  | Project { input; names; _ } ->
    Fmt.pf ppf "%aProject [%s]%s@." pad ()
      (String.concat ", " (Array.to_list names))
      suffix;
    pp ~indent:child ppf input
  | Aggregate { input; label; _ } ->
    Fmt.pf ppf "%aAggregate %s%s@." pad () label suffix;
    pp ~indent:child ppf input
  | Sort { input; label; _ } ->
    Fmt.pf ppf "%aSort %s%s@." pad () label suffix;
    pp ~indent:child ppf input
  | Distinct input ->
    Fmt.pf ppf "%aDistinct%s@." pad () suffix;
    pp ~indent:child ppf input
  | Limit { input; limit; offset } ->
    Fmt.pf ppf "%aLimit%s%s%s@." pad ()
      (match limit with Some n -> Printf.sprintf " limit=%d" n | None -> "")
      (match offset with Some n -> Printf.sprintf " offset=%d" n | None -> "")
      suffix;
    pp ~indent:child ppf input
  | Append inputs ->
    Fmt.pf ppf "%aAppend%s@." pad () suffix;
    List.iter (pp ~indent:child ppf) inputs
  | Partition_scan { parent; children; total; pruned; label } ->
    Fmt.pf ppf "%aPartitionScan %s partitions=%d/%d pruned=%d%s%s@." pad ()
      parent (total - pruned) total pruned label suffix;
    List.iter (pp ~indent:child ppf) children
  | Virtual_scan { vt_name; label; _ } ->
    Fmt.pf ppf "%aVirtualScan %s%s%s@." pad () vt_name label suffix
  | One_row -> Fmt.pf ppf "%aOneRow%s@." pad () suffix

let to_string plan = Fmt.str "%a" (pp ~indent:0) plan
