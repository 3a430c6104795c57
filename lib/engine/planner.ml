(* Translates a bound SELECT ({!Binder}) into a physical plan.

   The optimizer is deliberately simple but not a strawman: WHERE
   conjuncts are pushed down to the scans they cover, equality conjuncts
   across two join inputs become hash joins, and {!Access_path} chooses
   how each stored table is read from the conjuncts pushed to it (a
   B+tree range, an interval-index probe with an exact recheck on top,
   partition pruning, or a full scan). Everything else is a nested loop
   plus filters.

   Compilation detail: bindings have global column offsets left-to-right
   across the FROM list, and every expression attached to a plan node is
   compiled in its binder scope shifted by that node's subtree start, so
   each node sees offsets relative to its own rows. *)

open Tip_storage
module Ast = Tip_sql.Ast
module Pretty = Tip_sql.Pretty
module B = Binder

exception Plan_error = Binder.Plan_error

let plan_error = Binder.plan_error

type pctx = { ext : Extension.t; ectx : Expr_eval.ctx; catalog : Catalog.t }

(* --- FROM planning ------------------------------------------------------------ *)

let rec from_range = function
  | B.Base (_, b) -> (b.B.offset, b.B.offset + Array.length b.B.col_names)
  | B.Join (l, _, _, r) ->
    let lo, _ = from_range l and _, hi = from_range r in
    (lo, hi)

(* Offsets protected from scan-level pushdown: right sides of outer joins. *)
let rec protected_ranges = function
  | B.Base _ -> []
  | B.Join (l, kind, _, r) ->
    let own = match kind with Ast.Left_outer -> [ from_range r ] | Ast.Inner -> [] in
    own @ protected_ranges l @ protected_ranges r

type conjunct = { expr : Ast.expr; mutable used : bool }

let indices_within (lo, hi) idxs = List.for_all (fun i -> i >= lo && i < hi) idxs
let touches (lo, hi) idxs = List.exists (fun i -> i >= lo && i < hi) idxs

(* --- Cost model ----------------------------------------------------------- *)

(* Estimated output cardinality of a pipeline, for hash-join build-side
   choice: leaf scans read ANALYZE row counts; filters apply the classic
   1/3 guess. [None] whenever any leaf lacks statistics — planning then
   keeps the historical build-right default, so un-analyzed databases
   plan exactly as before. *)
let rec pipeline_est = function
  | Plan.Seq_scan { table; _ }
  | Plan.Interval_scan { table; _ }
  | Plan.Index_scan { table; _ } ->
    Option.map (fun st -> st.Stats.st_rows) (Table.stats table)
  | Plan.Filter { input; _ } ->
    Option.map (fun n -> Stdlib.max 1 (n / 3)) (pipeline_est input)
  | Plan.Project { input; _ } | Plan.Instrument { input; _ } ->
    pipeline_est input
  | _ -> None

(* --- Planning a FROM tree --------------------------------------------------------- *)

let label_of_exprs exprs =
  String.concat " AND " (List.map Pretty.expr_to_string exprs)

(* The sargs of the conjuncts pushed to the table bound at [offset]. *)
let table_sargs pctx scope ~offset schema exprs =
  Access_path.sargs pctx.ectx ~col_of:(B.column scope ~shift:offset) schema exprs

(* Conjuncts that can run below the full FROM: [indices_of] cannot see
   the outer columns a correlated subquery captures, so pushdown could
   hand it a too-narrow row. *)
let pushable ext e = not (B.contains_agg ext e || B.contains_subquery e)

let rec plan_from pctx layout pool protected from : Plan.t =
  let claim range =
    let mine =
      List.filter
        (fun c ->
          (not c.used) && pushable pctx.ext c.expr
          && indices_within range (B.indices_of layout c.expr))
        pool
    in
    List.iter (fun c -> c.used <- true) mine;
    List.map (fun c -> c.expr) mine
  in
  let scope = B.Rows layout in
  match from with
  | B.Base (source, binding) ->
    let range = from_range from in
    let exprs =
      if List.exists (fun prot -> touches prot [ fst range ]) protected then []
      else claim range
    in
    let offset = binding.B.offset in
    let recheck ?suffix () = filter_over pctx scope ~shift:offset ?suffix exprs in
    (match source with
    | B.Partitioned pt ->
      (* Each surviving child is its own chunk pipeline under its own
         recheck filter; the compiled predicate is shared — it only ever
         sees rows, never the table. *)
      Access_path.partition_scan pt
        (table_sargs pctx scope ~offset pt.Partition.pt_schema exprs)
        ~conjuncts:(List.length exprs) ~recheck:(recheck ())
    | B.Stored table ->
      (* All pushed conjuncts recheck above the scan — index scans may
         over-approximate (interval probes always do). The filter's
         label gains the estimate only when ANALYZE statistics exist,
         so un-analyzed plans (and the EXPLAIN shape tests) stay
         byte-identical. *)
      let scan, est =
        Access_path.choose table (table_sargs pctx scope ~offset (Table.schema table) exprs)
      in
      recheck ?suffix:(Option.map (Printf.sprintf " (est rows=%d)") est) () scan
    | B.Virtual p ->
      recheck ()
        (Plan.Virtual_scan
           { vt_name = p.Vtab.vt_name;
             produce = (fun () -> p.Vtab.vt_rows pctx.catalog);
             label = "" })
    | B.History { table; tt; at; support } -> recheck () (as_of pctx table tt at support)
    | B.Derived sel -> recheck () (fst (plan_bound pctx sel)))
  | B.Join (l, Ast.Left_outer, on, r) ->
    let lplan = plan_from pctx layout pool protected l in
    let rplan = plan_from pctx layout pool protected r in
    let start, _ = from_range from in
    let rlo, rhi = from_range r in
    let on_expr = Option.value on ~default:(Ast.Lit (Ast.L_bool true)) in
    Plan.Left_outer_join
      { left = lplan; right = rplan;
        on = compile_in pctx scope ~shift:start on_expr;
        right_width = rhi - rlo;
        label = Pretty.expr_to_string on_expr }
  | B.Join (l, Ast.Inner, _on, r) ->
    (* Inner-join ON conjuncts were added to the pool up front. *)
    let lplan = plan_from pctx layout pool protected l in
    let rplan = plan_from pctx layout pool protected r in
    let start, _ = from_range from in
    let lrange = from_range l and rrange = from_range r in
    let equi, residual =
      List.partition_map
        (fun e ->
          match e with
          | Ast.Binop (Ast.Eq, a, b) -> (
            let ia = B.indices_of layout a and ib = B.indices_of layout b in
            if ia <> [] && ib <> [] && indices_within lrange ia
               && indices_within rrange ib
            then Left (a, b, e)
            else if ia <> [] && ib <> [] && indices_within rrange ia
                    && indices_within lrange ib
            then Left (b, a, e)
            else Right e)
          | e -> Right e)
        (claim (from_range from))
    in
    let joined =
      if equi = [] then Plan.Nested_loop { left = lplan; right = rplan }
      else begin
        let left_keys =
          List.map (fun (a, _, _) -> compile_in pctx scope ~shift:start a) equi
        in
        let right_keys =
          List.map (fun (_, b, _) -> compile_in pctx scope ~shift:(fst rrange) b) equi
        in
        (* Build on the estimated-smaller input when both sides carry
           ANALYZE statistics; otherwise keep the historical build-right
           default. *)
        let lest = pipeline_est lplan and rest = pipeline_est rplan in
        let build_left =
          match lest, rest with Some l, Some r -> l < r | _ -> false
        in
        let label = label_of_exprs (List.map (fun (_, _, e) -> e) equi) in
        let label =
          match lest, rest with
          | Some l, Some r ->
            Printf.sprintf "%s (build=%s, est left=%d right=%d)" label
              (if build_left then "left" else "right")
              l r
          | _ -> label
        in
        Plan.Hash_join
          { left = lplan; right = rplan; left_keys; right_keys; build_left;
            label }
      end
    in
    filter_over pctx scope ~shift:start residual joined

(* Time travel: the WITH HISTORY shadow table as it was at the constant
   instant [at]. The scan keeps rows whose transaction-time timestamp
   contains the instant, then hides the _tt column. *)
and as_of pctx history tt at support =
  let now = pctx.ectx.Expr_eval.now in
  let at =
    match Access_path.const_eval pctx.ectx at with
    | Some v -> (
      match Extension.to_chronon pctx.ext ~now v with
      | Some c -> c
      | None -> plan_error "AS OF expects a time instant")
    | None -> plan_error "AS OF expects a constant expression"
  in
  let pred _ctx row =
    Value.Bool (support.Extension.timestamp_contains ~now row.(tt) at)
  in
  Plan.Project
    { input =
        Plan.Filter
          { input = Plan.Seq_scan { table = history; label = "" };
            pred;
            bpred = Expr_eval.batch_of_predicate pred;
            label = Printf.sprintf "_tt contains %s" (Tip_core.Chronon.to_string at) };
      exprs = Array.init tt (fun i _ctx (row : Value.t array) -> row.(i));
      names = Array.init tt (fun i -> (Schema.column (Table.schema history) i).Schema.name) }

(* A filter ANDing [exprs] over its input, compiled once in [scope] at
   [shift] and labelled by the conjuncts (plus [suffix]); no conjuncts,
   no filter. *)
and filter_over pctx scope ~shift ?(suffix = "") exprs =
  match exprs with
  | [] -> Fun.id
  | e :: rest ->
    let combined = List.fold_left (fun a b -> Ast.Binop (Ast.And, a, b)) e rest in
    let env = env pctx scope ~shift in
    let pred = Expr_eval.compile env combined in
    let bpred = Expr_eval.compile_batch env combined in
    let label = label_of_exprs exprs ^ suffix in
    fun input -> Plan.Filter { input; pred; bpred; label }

(* The compile environment of [scope] at [shift]. Its subqueries are
   planned with [scope] as their outer scope, once per physical
   subquery node: the row-free analysis and the compiler must see the
   same answer for the same node. *)
and env pctx scope ~shift =
  let cache = ref [] in
  let plan_subquery select =
    match List.assq_opt select !cache with
    | Some r -> r
    | None ->
      let r = plan_subquery pctx scope ~shift select in
      cache := (select, r) :: !cache;
      r
  in
  B.env pctx.ext scope ~shift ~plan_subquery

and compile_in pctx scope ~shift e = Expr_eval.compile (env pctx scope ~shift) e

(* A correlated subquery reads its outer columns through hidden
   parameters, bound from the outer row on every run. *)
and plan_subquery pctx scope ~shift select =
  let bound, corr = B.subquery pctx.ext pctx.catalog ~outer:scope ~shift select in
  let plan, _names = plan_bound pctx bound in
  { Expr_eval.sq_correlated = corr <> [];
    sq_run =
      (fun ctx row ->
        let bind acc (name, idx) = (name, row.(idx)) :: acc in
        let params = List.fold_left bind ctx.Expr_eval.params corr in
        List.of_seq
          (Executor.run (if corr = [] then ctx else { ctx with Expr_eval.params }) plan)) }

(* --- SELECT planning ------------------------------------------------------------------ *)

and aggregate pctx input = function
  | B.Rows _ -> input
  | B.Groups { input = layout; keys; calls; _ } ->
    let compile = compile_in pctx (B.Rows layout) ~shift:0 in
    let builtin =
      [ ("count", Plan.Agg_count); ("sum", Plan.Agg_sum); ("avg", Plan.Agg_avg);
        ("min", Plan.Agg_min); ("max", Plan.Agg_max) ]
    in
    let impl name =
      let name = String.lowercase_ascii name in
      match List.assoc_opt name builtin with
      | Some impl -> impl
      | None -> (
        match Extension.find_aggregate pctx.ext name with
        | Some agg -> Plan.Agg_user (agg, name)
        | None -> plan_error "unknown aggregate %s" name)
    in
    let spec call =
      match call with
      | Ast.Call (name, [ a ]) | Ast.Call_distinct (name, a) ->
        { Plan.impl = impl name; arg = Some (compile a);
          distinct = (match call with Ast.Call_distinct _ -> true | _ -> false);
          agg_label = Pretty.expr_to_string call }
      | _ ->
        { Plan.impl = Plan.Agg_count_star; arg = None; distinct = false;
          agg_label = "count(*)" }
    in
    let aggs = List.map spec calls in
    let label =
      Printf.sprintf "keys=[%s] aggs=[%s]"
        (String.concat ", " (List.map Pretty.expr_to_string keys))
        (String.concat ", " (List.map (fun sp -> sp.Plan.agg_label) aggs))
    in
    Plan.Aggregate { input; keys = List.map compile keys; aggs; label }

and plan_bound pctx (b : B.select) : Plan.t * string array =
  (* 1. Conjunct pool: WHERE plus inner-join ON conditions. *)
  let rec on_conjuncts = function
    | B.Join (l, Ast.Inner, Some e, r) -> B.conjuncts e @ on_conjuncts l @ on_conjuncts r
    | B.Join (l, _, _, r) -> on_conjuncts l @ on_conjuncts r
    | B.Base _ -> []
  in
  let pool =
    List.map
      (fun expr -> { expr; used = false })
      (b.B.where @ Option.fold ~none:[] ~some:on_conjuncts b.B.from)
  in
  (* 2. Plan the join tree with pushdown; any conjunct not consumed
     (e.g. inside an outer-join-only FROM) runs as a final filter. *)
  let layout = b.B.layout in
  let input =
    match b.B.from with
    | None -> Plan.One_row
    | Some f -> plan_from pctx layout pool (protected_ranges f) f
  in
  let input =
    filter_over pctx (B.Rows layout) ~shift:0
      (List.filter_map (fun c -> if c.used then None else Some c.expr) pool)
      input
  in
  (* 3. Aggregation, then HAVING over its slots. *)
  let input = aggregate pctx input b.B.scope in
  let post = env pctx b.B.scope ~shift:0 in
  let input =
    match b.B.having with
    | None -> input
    | Some e ->
      let pred = Expr_eval.compile post e in
      Plan.Filter
        { input; pred; bpred = Expr_eval.batch_of_predicate pred;
          label = Pretty.expr_to_string e }
  in
  (* 4. ORDER BY (pre-projection; Distinct preserves order above). A
     lone table with no WHERE, ordered by one ascending column, may be
     read through an index in that order instead of sorted. *)
  let sorted_scan =
    match b.B.order_by, b.B.from, pool with
    | [ (Ast.Column (q, n), Ast.Asc) ], Some (B.Base (B.Stored table, _)), []
      when not b.B.distinct ->
      Option.bind (B.column b.B.scope ~shift:0 q n) (Access_path.ordered_scan table)
    | _ -> None
  in
  let input =
    match sorted_scan with
    | Some scan -> scan
    | None when b.B.order_by = [] -> input
    | None ->
      let by = List.map (fun (e, d) -> (Expr_eval.compile post e, d)) b.B.order_by in
      let label =
        String.concat ", "
          (List.map
             (fun (e, d) ->
               Pretty.expr_to_string e
               ^ match d with Ast.Asc -> "" | Ast.Desc -> " DESC")
             b.B.order_by)
      in
      Plan.Sort { input; by; label }
  in
  (* 5. Projection, then DISTINCT and LIMIT. *)
  let exprs =
    Array.of_list
      (List.map
         (function
           | B.Col idx, _ -> fun _ row -> row.(idx)
           | B.Expr e, _ -> Expr_eval.compile post e)
         b.B.items)
  in
  let names = Array.of_list (List.map snd b.B.items) in
  let plan = Plan.Project { input; exprs; names } in
  let plan = if b.B.distinct then Plan.Distinct plan else plan in
  let plan =
    match b.B.limit, b.B.offset with
    | None, None -> plan
    | limit, offset -> Plan.Limit { input = plan; limit; offset }
  in
  (plan, names)

(* UNION [ALL] trees: plan each arm, require matching arity, append, and
   deduplicate for plain UNION. Output names come from the first arm. *)
let rec plan_compound pctx (c : Ast.compound) : Plan.t * string array =
  match c with
  | Ast.Simple s -> plan_bound pctx (B.bind pctx.ext pctx.catalog s)
  | Ast.Union { all; left; right } ->
    let lplan, lnames = plan_compound pctx left in
    let rplan, rnames = plan_compound pctx right in
    if Array.length lnames <> Array.length rnames then
      plan_error "UNION arms select %d and %d columns" (Array.length lnames)
        (Array.length rnames);
    let appended =
      (* Flatten nested appends so a long UNION chain stays one node. *)
      match lplan, rplan with
      | Plan.Append ls, Plan.Append rs -> Plan.Append (ls @ rs)
      | Plan.Append ls, r -> Plan.Append (ls @ [ r ])
      | l, Plan.Append rs -> Plan.Append (l :: rs)
      | l, r -> Plan.Append [ l; r ]
    in
    ((if all then appended else Plan.Distinct appended), lnames)

(* Entry points. *)
let plan ~ext ~ectx catalog select =
  plan_compound { ext; ectx; catalog } (Ast.Simple select)

let plan_union ~ext ~ectx catalog compound =
  plan_compound { ext; ectx; catalog } compound

let compile ~(ectx : Expr_eval.ctx) catalog scope e =
  compile_in { ext = ectx.ext; ectx; catalog } scope ~shift:0 e

(* The access path of a single-table UPDATE/DELETE: the scan a SELECT
   over [table] in [scope] with the same WHERE would take. Only
   conjuncts the SELECT would push to the scan qualify; the caller
   rechecks the whole WHERE on every row the scan yields. *)
let dml_access_path ~(ectx : Expr_eval.ctx) scope table where =
  let exprs =
    List.filter (pushable ectx.Expr_eval.ext) (Option.fold ~none:[] ~some:B.conjuncts where)
  in
  fst
    (Access_path.choose table
       (Access_path.sargs ectx ~col_of:(B.column scope ~shift:0) (Table.schema table) exprs))

(* EXPLAIN output: the plan tree, without its final newline. *)
let explain plan =
  let tree = Plan.to_string plan in
  if String.ends_with ~suffix:"\n" tree then
    String.sub tree 0 (String.length tree - 1)
  else tree

(* EXPLAIN ANALYZE output: the executed (instrumented) plan tree — each
   operator annotated with actual rows and inclusive wall time — then,
   after a blank line, a footer with the phase timings, total row count,
   and the NOW chronon the statement was bound to (bound once, at
   root-span open; DESIGN.md §9). *)
let explain_analyze ~now ~rows ~plan_ns ~exec_ns plan =
  let ms ns = float_of_int ns /. 1e6 in
  Printf.sprintf "%s\n\nPhases: plan %.3f ms, execute %.3f ms\nRows: %d\nNOW: %s"
    (explain plan) (ms plan_ns) (ms exec_ns) rows now
