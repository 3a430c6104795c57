(* Access-path choice for one stored table. One pass turns the conjuncts
   pushed to the table into sargs; the chooser reads only those to pick
   the leaf scan (an interval probe, a B+tree range or a seq scan), the
   partition window and its filter elision. A sarg's constant is
   evaluated once and coerced into its column's type by [coerce], the
   function that also coerces stored values. *)

open Tip_storage
module Ast = Tip_sql.Ast
module Pretty = Tip_sql.Pretty

(* [v] as a value of column type [ty]: the blade's automatic casts from
   SQL strings (a string is parsed as a literal of the column's type),
   then the registered implicit casts. Storage keeps what this returns.
   An [~exact] coercion is a probe key and must keep the filter's
   answer: an over-width CHAR(n) string stays whole (truncated, [c <
   'abcde'] would probe [c < 'abcd'] and miss the row 'abcd'), and a
   DATE takes only dates and date strings (a chronon's day or a bound
   NOW would move the key past rows the filter keeps). *)
let coerce ?(exact = false) ext ~now ty v =
  let error fmt = Printf.ksprintf Result.error fmt in
  let day c = Ok (Value.Date (Tip_core.Chronon.start_of_day c)) in
  match Schema.coerce ty v, ty, v with
  | Some _, Schema.T_char _, Value.Str _ when exact -> Ok v
  | Some v, _, _ -> Ok v
  | None, Schema.T_ext target, Value.Str s -> (
    match Value.lookup_type target with
    | Some vt -> (
      try Ok (vt.Value.parse s) with _ -> error "cannot parse %S as %s" s target)
    | None -> error "type %s not registered" target)
  | None, Schema.T_ext target, _ -> (
    match
      Extension.find_implicit_cast ext ~from_type:(Value.type_name v)
        ~to_type:target
    with
    | Some cast -> Ok (cast.Extension.cast_impl ~now v)
    | None -> error "cannot store %s in a %s column" (Value.type_name v) target)
  | None, Schema.T_date, Value.Str s -> (
    match Tip_core.Chronon.of_string s with
    | Some c -> day c
    | None -> error "cannot parse %S as DATE" s)
  | None, Schema.T_date, _ when not exact -> (
    match Extension.to_chronon ext ~now v with
    | Some c -> day c
    | None -> error "cannot store %s in a DATE column" (Value.type_name v))
  | None, _, _ ->
    error "cannot store %s in a %s column" (Value.type_name v)
      (Schema.type_name ty)

(* Evaluates [e] at plan time if it binds in the empty scope (subqueries
   are deliberately excluded — they are not plan-time constants). *)
exception Not_const

let const_eval (ectx : Expr_eval.ctx) e =
  let plan_subquery _ = raise Not_const in
  let env = Binder.env ectx.ext Binder.empty_scope ~shift:0 ~plan_subquery in
  match Expr_eval.compile env e ectx [||] with
  | v -> Some v
  | exception (Not_const | Binder.Plan_error _ | Expr_eval.Eval_error _) -> None

type sarg =
  | Range of { src : Ast.expr; col : int; lo : Btree.bound; hi : Btree.bound }
  | Probe of
      { src : Ast.expr; col : int; lo : int; hi : int; overlaps : bool; solid : bool }

let flip = function Ast.Lt -> Ast.Gt | Le -> Ge | Gt -> Lt | Ge -> Le | op -> op

let column col_of = function Ast.Column (q, name) -> col_of q name | _ -> None

(* [e] as a probe key for column [col] (an interval probe's constant with
   an extent probes as it is); one that fails is left to the filter. *)
let key ?(extent = false) (ectx : Expr_eval.ctx) schema col e =
  match const_eval ectx e with
  | exception Value.Type_error _ -> None
  | Some v when extent && Option.is_some (Value.extent v) -> Some v
  | Some v -> (
    let ty = (Schema.column schema col).Schema.ty in
    match coerce ~exact:true ectx.ext ~now:ectx.now ty v with
    | Ok k -> Some k
    | Error _ -> None)
  | None -> None

let range ectx schema src col op e =
  match key ectx schema col e with
  | None -> None
  | Some k ->
    let lo, hi =
      match op with
      | Ast.Eq -> (Btree.Inclusive k, Btree.Inclusive k)
      | Ast.Lt -> (Btree.Unbounded, Btree.Exclusive k)
      | Ast.Le -> (Btree.Unbounded, Btree.Inclusive k)
      | Ast.Gt -> (Btree.Exclusive k, Btree.Unbounded)
      | _ -> (Btree.Inclusive k, Btree.Unbounded)
    in
    Some (Range { src; col; lo; hi })

let probe ectx schema src name col e =
  let v = key ~extent:true ectx schema col e in
  match v, Option.bind v Value.extent with
  | Some v, Some (lo, hi) ->
    let solid = List.length (Value.extents v) = 1 && lo > min_int && hi < max_int in
    let overlaps = String.lowercase_ascii name = "overlaps" in
    Some (Probe { src; col; lo; hi; overlaps; solid })
  | _, _ -> None

(* [src] as a sarg: a comparison with its constant first is flipped; a
   constant the column cannot take exactly makes none. *)
let sarg ectx ~col_of schema src =
  match src with
  | Ast.Binop (((Ast.Eq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b) -> (
    match column col_of a, column col_of b with
    | Some col, _ -> range ectx schema src col op b
    | None, Some col -> range ectx schema src col (flip op) a
    | None, None -> None)
  | Ast.Between { negated = false; scrutinee; low; high } -> (
    match column col_of scrutinee with
    | None -> None
    | Some col -> (
      match key ectx schema col low, key ectx schema col high with
      | Some l, Some h ->
        Some (Range { src; col; lo = Btree.Inclusive l; hi = Btree.Inclusive h })
      | _, _ -> None))
  | Ast.Call (name, [ a; b ]) when Extension.is_interval_sargable ectx.ext name -> (
    match column col_of a, column col_of b with
    | Some col, _ -> probe ectx schema src name col b
    | None, Some col -> probe ectx schema src name col a
    | None, None -> None)
  | _ -> None

(* The one pass. [col_of q name] is the column a reference names in this
   table, if any. *)
let sargs ectx ~col_of schema exprs = List.filter_map (sarg ectx ~col_of schema) exprs

(* The executor degrades an interval scan to a full scan once the probe
   window matches over half the table, so an index access path is only
   worth choosing below that selectivity. With ANALYZE statistics the
   chooser makes the same call up front, from histograms instead of a
   materialized candidate list. *)
let interval_selectivity_threshold = 0.5

let choose table sargs =
  let stats = Table.stats table in
  let probe =
    List.find_map
      (function
        | Probe p -> (
          match Table.index_on_column table ~kind:Table.Interval p.col with
          | Some { Table.impl = Table.Interval_impl index; _ } ->
            Some (p.src, p.col, p.lo, p.hi, index)
          | _ -> None)
        | Range _ -> None)
      sargs
  in
  let range () =
    List.find_map
      (function
        | Range r -> (
          match Table.index_on_column table ~kind:Table.Ordered r.col with
          | Some { Table.impl = Table.Ordered_impl btree; _ } ->
            let label = "on " ^ Pretty.expr_to_string r.src in
            Some (Plan.Index_scan { table; btree; lo = r.lo; hi = r.hi; label })
          | _ -> None)
        | Probe _ -> None)
      sargs
  in
  match probe with
  | Some (src, col, lo, hi, index) -> (
    let label = "probe " ^ Pretty.expr_to_string src in
    let col_stats st = Option.map (fun cs -> (st, cs)) (Stats.find_col st col) in
    match Option.bind stats col_stats with
    | None -> (Plan.Interval_scan { table; index; lo; hi; label }, None)
    | Some (st, cs) ->
      let sel = Stats.overlap_selectivity cs ~lo ~hi in
      let est = int_of_float ((sel *. float_of_int st.Stats.st_rows) +. 0.5) in
      if sel <= interval_selectivity_threshold then
        let label = Printf.sprintf "%s (est rows=%d)" label est in
        (Plan.Interval_scan { table; index; lo; hi; label }, Some est)
      else
        (* The window matches most of the table: a full scan avoids the
           candidate sort/dedup the executor would fall back to anyway. *)
        ( Plan.Seq_scan
            { table;
              label =
                Printf.sprintf
                  " (est rows=%d, interval probe rejected at selectivity %.2f)"
                  st.Stats.st_rows sel },
          Some est ))
  | None -> (
    match range (), stats with
    | Some scan, _ -> (scan, None)
    | None, Some st ->
      ( Plan.Seq_scan { table; label = Printf.sprintf " (est rows=%d)" st.Stats.st_rows },
        Some (Stdlib.max 1 (st.Stats.st_rows / 3)) )
    | None, None -> (Plan.Seq_scan { table; label = "" }, None))

let ordered_scan table col =
  match Table.index_on_column table ~kind:Table.Ordered col with
  | Some { Table.impl = Table.Ordered_impl btree; _ }
    when (Schema.column (Table.schema table) col).Schema.not_null ->
    Some
      (Plan.Index_scan
         { table; btree; lo = Btree.Unbounded; hi = Btree.Unbounded;
           label = "(satisfies ORDER BY)" })
  | _ -> None

(* Filter elision: a non-default child whose start range sits inside the
   window and whose rows are all fixed periods (finite end watermark;
   NOW-relative starts route to DEFAULT) overlaps a solid window by
   construction, so when that [overlaps] is the whole pushed filter the
   child's scan runs bare. *)
let partition_scan (pt : Partition.t) sargs ~conjuncts ~recheck =
  let window =
    List.find_map
      (function
        | Probe p when p.col = pt.Partition.pt_column ->
          Some (p.lo, p.hi, p.overlaps && p.solid && conjuncts = 1)
        | Probe _ | Range _ -> None)
      sargs
  in
  let kept, pruned, label =
    match window with
    | Some (lo, hi, _) ->
      let kept, pruned = Partition.prune pt ~lo ~hi in
      ( kept, pruned,
        Printf.sprintf " probe [%s, %s]" (Partition.bound_to_string lo)
          (Partition.bound_to_string hi) )
    | None -> (Partition.all_parts pt, 0, "")
  in
  let elide (p : Partition.part) =
    match window with
    | Some (lo, hi, true) ->
      (not p.Partition.p_default) && p.Partition.p_from >= lo
      && p.Partition.p_to <= hi + 1
      && Atomic.get p.Partition.p_max_end < max_int
    | Some (_, _, false) | None -> false
  in
  let kept = List.map (fun p -> (p, elide p)) kept in
  let elided = List.length (List.filter snd kept) in
  let child ((p : Partition.part), bare) =
    if bare then fst (choose p.Partition.p_table [])
    else recheck (fst (choose p.Partition.p_table sargs))
  in
  Plan.Partition_scan
    { parent = pt.Partition.pt_name;
      children = List.map child kept;
      total = Array.length pt.Partition.pt_parts;
      pruned;
      label =
        (if elided = 0 then label
         else Printf.sprintf "%s filter-elided=%d" label elided) }
