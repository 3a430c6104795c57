(* Translates a bound SELECT into a physical plan.

   The optimizer is deliberately simple but not a strawman: WHERE
   conjuncts are pushed down to the scans they cover, equality conjuncts
   across two join inputs become hash joins, and {!Access_path} chooses
   how each stored table is read from the conjuncts pushed to it (a
   B+tree range, an interval-index probe with an exact recheck on top,
   partition pruning, or a full scan). Everything else is a nested loop
   plus filters.

   Compilation detail: bindings get global column offsets left-to-right
   across the FROM list, and every expression attached to a plan node is
   compiled with a resolver shifted by that node's subtree start, so each
   node sees offsets relative to its own rows. *)

open Tip_storage
module Ast = Tip_sql.Ast
module Pretty = Tip_sql.Pretty

exception Plan_error of string

let plan_error fmt = Format.kasprintf (fun s -> raise (Plan_error s)) fmt

type binding = {
  qual : string option; (* alias or table name, lowercase *)
  col_names : string array; (* lowercase *)
  offset : int;
}

type layout = { bindings : binding list; width : int }

let empty_layout = { bindings = []; width = 0 }

let lc = String.lowercase_ascii

(* --- Column resolution --------------------------------------------------- *)

let resolve_in layout q name =
  let name = lc name in
  match q with
  | Some q ->
    let q = lc q in
    (match List.find_opt (fun b -> b.qual = Some q) layout.bindings with
    | None -> plan_error "unknown table or alias %s" q
    | Some b -> (
      match Array.find_index (String.equal name) b.col_names with
      | Some i -> b.offset + i
      | None -> plan_error "no column %s in %s" name q))
  | None -> (
    let hits =
      List.filter_map
        (fun b ->
          match Array.find_index (String.equal name) b.col_names with
          | Some i -> Some (b.offset + i)
          | None -> None)
        layout.bindings
    in
    match hits with
    | [ i ] -> i
    | [] -> plan_error "unknown column %s" name
    | _ :: _ :: _ -> plan_error "ambiguous column %s" name)

(* --- Expression analysis --------------------------------------------------- *)

let rec fold_expr f acc e =
  List.fold_left (fold_expr f) (f acc e) (Ast.children e)

(* Absolute column indices referenced by [e], resolved in [layout]. *)
let indices_of layout e =
  fold_expr
    (fun acc e ->
      match e with
      | Ast.Column (q, name) -> resolve_in layout q name :: acc
      | _ -> acc)
    [] e

(* Rewrites every column reference to its absolute index, making
   structural equality meaningful across qualifier spellings. *)
let rec normalize layout e =
  match e with
  | Ast.Column (q, name) ->
    Ast.Column (Some "#", string_of_int (resolve_in layout q name))
  (* Case-fold the names structural matching must ignore. *)
  | Ast.Call (name, args) -> Ast.Call (lc name, List.map (normalize layout) args)
  | Ast.Cast (e, ty) -> Ast.Cast (normalize layout e, lc ty)
  | _ -> Ast.map_children (normalize layout) e

let rec conjuncts = function
  | Ast.Binop (Ast.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let builtin_aggs = [ "count"; "sum"; "avg"; "min"; "max" ]

let is_agg_call ext = function
  | Ast.Count_star -> true
  | Ast.Call (name, _) | Ast.Call_distinct (name, _) ->
    List.mem (lc name) builtin_aggs || Extension.is_aggregate ext name
  | _ -> false

let contains_agg ext e =
  fold_expr (fun acc e -> acc || is_agg_call ext e) false e

(* Conjuncts containing subqueries are never pushed below the full FROM:
   [indices_of] cannot see the outer columns a correlated subquery
   captures, so pushdown could hand it a too-narrow row. They run as a
   top-level filter over the complete layout instead. *)
let contains_subquery e =
  fold_expr
    (fun acc e ->
      acc
      ||
      match e with
      | Ast.Exists _ | Ast.In_select _ | Ast.Scalar_subquery _ -> true
      | _ -> false)
    false e

(* --- Compilation helpers ---------------------------------------------------- *)

type pctx = { ext : Extension.t; ectx : Expr_eval.ctx; catalog : Catalog.t }

(* --- FROM planning ------------------------------------------------------------ *)

type fbase =
  | B_table of Table.t
  | B_partitioned of Partition.t
  | B_derived of Plan.t

type fref =
  | F_base of fbase * binding
  | F_join of fref * Ast.join_kind * Ast.expr option * fref

let rec fref_range = function
  | F_base (_, b) -> (b.offset, b.offset + Array.length b.col_names)
  | F_join (l, _, _, r) ->
    let lo, _ = fref_range l and _, hi = fref_range r in
    (lo, hi)

let rec fref_bindings = function
  | F_base (_, b) -> [ b ]
  | F_join (l, _, _, r) -> fref_bindings l @ fref_bindings r

(* Offsets protected from scan-level pushdown: right sides of outer joins. *)
let rec protected_ranges = function
  | F_base _ -> []
  | F_join (l, kind, _, r) ->
    let own = match kind with Ast.Left_outer -> [ fref_range r ] | Ast.Inner -> [] in
    own @ protected_ranges l @ protected_ranges r

type conjunct = { expr : Ast.expr; mutable used : bool }

let pool_of exprs = List.map (fun expr -> { expr; used = false }) exprs

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

(* The sargs of the conjuncts pushed to the table bound by [binding]. *)
let table_sargs pctx binding schema exprs =
  let layout1 = { bindings = [ binding ]; width = Array.length binding.col_names } in
  let col_of q name =
    match resolve_in layout1 q name with
    | i -> Some (i - binding.offset)
    | exception Plan_error _ -> None
  in
  Access_path.sargs pctx.ectx ~col_of schema exprs

let rec plan_fref pctx layout pool protected fref : Plan.t =
  match fref with
  | F_base (base, binding) ->
    let range = fref_range fref in
    let blocked =
      List.exists (fun prot -> touches prot [ fst range ]) protected
    in
    let mine =
      if blocked then []
      else
        List.filter
          (fun c ->
            (not c.used)
            && (not (contains_agg pctx.ext c.expr))
            && (not (contains_subquery c.expr))
            && indices_within range (indices_of layout c.expr))
          pool
    in
    List.iter (fun c -> c.used <- true) mine;
    let exprs = List.map (fun c -> c.expr) mine in
    let recheck ?suffix () =
      filter_over pctx layout ~shift:binding.offset ?suffix exprs
    in
    (match base with
    | B_partitioned pt ->
      (* Each surviving child is its own chunk pipeline under its own
         recheck filter; the compiled predicate is shared — it only ever
         sees rows, never the table. *)
      Access_path.partition_scan pt
        (table_sargs pctx binding pt.Partition.pt_schema exprs)
        ~conjuncts:(List.length exprs) ~recheck:(recheck ())
    | B_table table ->
      (* All pushed conjuncts recheck above the scan — index scans may
         over-approximate (interval probes always do). The filter's
         label gains the estimate only when ANALYZE statistics exist,
         so un-analyzed plans (and the EXPLAIN shape tests) stay
         byte-identical. *)
      let scan, est =
        Access_path.choose table (table_sargs pctx binding (Table.schema table) exprs)
      in
      recheck ?suffix:(Option.map (Printf.sprintf " (est rows=%d)") est) () scan
    | B_derived plan -> recheck () plan)
  | F_join (l, Ast.Left_outer, on, r) ->
    let lplan = plan_fref pctx layout pool protected l in
    let rplan = plan_fref pctx layout pool protected r in
    let start, _ = fref_range fref in
    let _, rhi = fref_range r in
    let rlo, _ = fref_range r in
    let on_expr = Option.value on ~default:(Ast.Lit (Ast.L_bool true)) in
    Plan.Left_outer_join
      { left = lplan; right = rplan;
        on = compile_shifted pctx layout ~shift:start on_expr;
        right_width = rhi - rlo;
        label = Pretty.expr_to_string on_expr }
  | F_join (l, Ast.Inner, _on, r) ->
    (* Inner-join ON conjuncts were added to the pool up front. *)
    let lplan = plan_fref pctx layout pool protected l in
    let rplan = plan_fref pctx layout pool protected r in
    let start, _ = fref_range fref in
    let lrange = fref_range l and rrange = fref_range r in
    let joinable =
      List.filter
        (fun c ->
          (not c.used)
          && (not (contains_agg pctx.ext c.expr))
          && (not (contains_subquery c.expr))
          && indices_within (fref_range fref) (indices_of layout c.expr))
        pool
    in
    List.iter (fun c -> c.used <- true) joinable;
    let equi, residual =
      List.partition_map
        (fun c ->
          match c.expr with
          | Ast.Binop (Ast.Eq, a, b) -> (
            let ia = indices_of layout a and ib = indices_of layout b in
            if ia <> [] && ib <> [] && indices_within lrange ia
               && indices_within rrange ib
            then Left (a, b, c.expr)
            else if ia <> [] && ib <> [] && indices_within rrange ia
                    && indices_within lrange ib
            then Left (b, a, c.expr)
            else Right c.expr)
          | e -> Right e)
        joinable
    in
    let joined =
      if equi = [] then Plan.Nested_loop { left = lplan; right = rplan }
      else begin
        let left_keys =
          List.map (fun (a, _, _) -> compile_shifted pctx layout ~shift:start a) equi
        in
        let right_keys =
          List.map
            (fun (_, b, _) -> compile_shifted pctx layout ~shift:(fst rrange) b)
            equi
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
    filter_over pctx layout ~shift:start residual joined

(* A filter ANDing [exprs] over its input, compiled once against
   [layout] at [shift] and labelled by the conjuncts (plus [suffix]);
   no conjuncts, no filter. *)
and filter_over pctx layout ~shift ?(suffix = "") exprs =
  match exprs with
  | [] -> Fun.id
  | e :: rest ->
    let combined = List.fold_left (fun a b -> Ast.Binop (Ast.And, a, b)) e rest in
    let env = shifted_env pctx layout ~shift in
    let pred = Expr_eval.compile env combined in
    let bpred = Expr_eval.compile_batch env combined in
    let label = label_of_exprs exprs ^ suffix in
    fun input -> Plan.Filter { input; pred; bpred; label }

(* Compiles [e] against [layout], with row offsets shifted down by
   [shift] (the subtree's starting offset). Subqueries are planned with
   this layout as their outer scope, so one level of correlation works
   (outer references become hidden per-row parameters). *)
and shifted_env pctx layout ~shift =
  Expr_eval.base_env ~ext:pctx.ext
    ~plan_subquery:(subquery_hook ~outer:(layout, shift) pctx)
    ~resolve_column:(fun q name -> resolve_in layout q name - shift)
    ()

and compile_shifted pctx layout ~shift e =
  Expr_eval.compile (shifted_env pctx layout ~shift) e

(* A caching [plan_subquery] for one compilation environment: the
   row-free analysis and the compiler must see the same answer for the
   same (physical) subquery node, and planning should happen once. *)
and subquery_hook ?outer pctx =
  let cache = ref [] in
  fun select ->
    match List.assq_opt select !cache with
    | Some r -> r
    | None ->
      let r = plan_subquery ?outer pctx select in
      cache := (select, r) :: !cache;
      r

(* Plans a subquery. Columns that do not resolve in the subquery's own
   FROM but do resolve in [outer] are rewritten to hidden parameters
   bound from the outer row at evaluation time (one level of
   correlation; nested subqueries correlate against their immediate
   parent only). *)
and plan_subquery ?outer pctx select =
  (* The subquery's own name scope. *)
  let inner_frefs, inner_width =
    List.fold_left
      (fun (refs, offset) tref ->
        let fref, offset = build_fref pctx pctx.catalog offset tref in
        (fref :: refs, offset))
      ([], 0) select.Ast.from
  in
  let inner_layout =
    { bindings = List.concat_map fref_bindings (List.rev inner_frefs);
      width = inner_width }
  in
  let corr = ref [] in
  let fresh = ref 0 in
  let rec rw e =
    match e with
    | Ast.Column (q, n) -> (
      match resolve_in inner_layout q n with
      | _ -> e (* inner scope wins, as SQL scoping requires *)
      | exception Plan_error _ -> (
        match outer with
        | None -> e (* let plan_select report the unknown column *)
        | Some (outer_layout, shift) -> (
          match resolve_in outer_layout q n with
          | abs ->
            let name = Printf.sprintf "__corr_%d" !fresh in
            incr fresh;
            corr := (name, abs - shift) :: !corr;
            Ast.Param name
          | exception Plan_error _ -> e)))
    | _ -> Ast.map_children rw e
  in
  let rec rw_ref = function
    | Ast.Join r ->
      Ast.Join { r with left = rw_ref r.left; right = rw_ref r.right; on = rw r.on }
    | (Ast.Table _ | Ast.Derived _) as t -> t
  in
  let rewritten =
    { select with
      Ast.items =
        List.map
          (function
            | Ast.Sel_expr (e, a) -> Ast.Sel_expr (rw e, a)
            | Ast.Sel_star _ as item -> item)
          select.Ast.items;
      from = List.map rw_ref select.Ast.from;
      where = Option.map rw select.Ast.where;
      group_by = List.map rw select.Ast.group_by;
      having = Option.map rw select.Ast.having;
      order_by = List.map (fun (e, d) -> (rw e, d)) select.Ast.order_by }
  in
  let plan, _names = plan_select pctx pctx.catalog rewritten in
  let corr = List.rev !corr in
  if corr = [] then
    { Expr_eval.sq_run = (fun ctx _row -> List.of_seq (Executor.run ctx plan));
      sq_correlated = false }
  else
    { Expr_eval.sq_run =
        (fun ctx row ->
          let params =
            List.fold_left
              (fun acc (name, idx) -> (name, row.(idx)) :: acc)
              ctx.Expr_eval.params corr
          in
          List.of_seq (Executor.run { ctx with Expr_eval.params } plan));
      sq_correlated = true }

(* Builds the fref tree and layout from the FROM clause. *)
and build_fref pctx catalog offset table_ref : fref * int =
  match table_ref with
  | Ast.Table { name; alias; as_of = None } -> (
    let bind col_names =
      let qual = Some (lc (Option.value alias ~default:name)) in
      ({ qual; col_names; offset }, offset + Array.length col_names)
    in
    match Catalog.target catalog name with
    | Some target ->
      let schema = target.Catalog.tg_schema in
      let binding, next =
        bind (Array.map (fun c -> c.Schema.name) schema.Schema.columns)
      in
      let base =
        match target.Catalog.tg_partitioned with
        | Some pt -> B_partitioned pt
        | None -> B_table (List.hd target.Catalog.tg_tables)
      in
      (F_base (base, binding), next)
    | None -> (
      (* Catalog miss: the name may be a registered virtual table (a
         tip_stat relation). A real table always shadows a virtual one. *)
      match Vtab.find name with
      | None -> plan_error "no such table: %s" name
      | Some p ->
        let plan =
          Plan.Virtual_scan
            { vt_name = p.Vtab.vt_name;
              produce = (fun () -> p.Vtab.vt_rows catalog);
              label = "" }
        in
        let binding, next = bind p.Vtab.vt_cols in
        (F_base (B_derived plan, binding), next)))
  | Ast.Table { name; alias; as_of = Some at_expr } ->
    (* Time travel: read the WITH HISTORY shadow table as it was at the
       given instant. The scan filters rows whose transaction-time
       timestamp contains the instant, then hides the _tt column so the
       reference looks exactly like the base table. *)
    let support =
      match Extension.history_support pctx.ext with
      | Some s -> s
      | None ->
        plan_error "AS OF requires a temporal blade with history support"
    in
    let history, tt_index =
      match Catalog.history_of catalog name with
      | Some link -> link
      | None -> plan_error "table %s has no transaction-time history" name
    in
    let at =
      match Access_path.const_eval pctx.ectx at_expr with
      | Some v -> (
        match Extension.to_chronon pctx.ext ~now:pctx.ectx.Expr_eval.now v with
        | Some c -> c
        | None -> plan_error "AS OF expects a time instant")
      | None -> plan_error "AS OF expects a constant expression"
    in
    let now = pctx.ectx.Expr_eval.now in
    let pred _ctx row =
      Value.Bool (support.Extension.timestamp_contains ~now row.(tt_index) at)
    in
    let projections =
      Array.init tt_index (fun i _ctx (row : Value.t array) -> row.(i))
    in
    let col_names =
      Array.init tt_index (fun i ->
          (Schema.column (Table.schema history) i).Schema.name)
    in
    let plan =
      Plan.Project
        { input =
            Plan.Filter
              { input = Plan.Seq_scan { table = history; label = "" };
                pred;
                bpred = Expr_eval.batch_of_predicate pred;
                label =
                  Printf.sprintf "_tt contains %s"
                    (Tip_core.Chronon.to_string at) };
          exprs = projections;
          names = col_names }
    in
    let qual = Some (lc (Option.value alias ~default:name)) in
    let binding = { qual; col_names = Array.map lc col_names; offset } in
    (F_base (B_derived plan, binding), offset + Array.length col_names)
  | Ast.Derived { query; alias } ->
    let plan, names = plan_select pctx catalog query in
    let col_names = Array.map lc names in
    let binding = { qual = Some (lc alias); col_names; offset } in
    (F_base (B_derived plan, binding), offset + Array.length col_names)
  | Ast.Join { left; kind; right; on } ->
    let lref, offset = build_fref pctx catalog offset left in
    let rref, offset = build_fref pctx catalog offset right in
    (F_join (lref, kind, Some on, rref), offset)

(* --- SELECT planning ------------------------------------------------------------------ *)

and plan_select pctx catalog (s : Ast.select) : Plan.t * string array =
  (* 1. FROM: build refs and the full layout. *)
  let frefs, width =
    List.fold_left
      (fun (refs, offset) tref ->
        let fref, offset = build_fref pctx catalog offset tref in
        (fref :: refs, offset))
      ([], 0) s.Ast.from
  in
  let frefs = List.rev frefs in
  let combined =
    match frefs with
    | [] -> None
    | first :: rest ->
      Some (List.fold_left (fun acc r -> F_join (acc, Ast.Inner, None, r)) first rest)
  in
  let layout =
    match combined with
    | None -> empty_layout
    | Some fref -> { bindings = fref_bindings fref; width }
  in
  (* 2. Conjunct pool: WHERE plus inner-join ON conditions. *)
  let rec on_conjuncts = function
    | F_base _ -> []
    | F_join (l, kind, on, r) ->
      let own =
        match kind, on with
        | Ast.Inner, Some e -> conjuncts e
        | Ast.Inner, None | Ast.Left_outer, _ -> []
      in
      own @ on_conjuncts l @ on_conjuncts r
  in
  let where_conjuncts =
    match s.Ast.where with Some e -> conjuncts e | None -> []
  in
  List.iter
    (fun e ->
      if contains_agg pctx.ext e then
        plan_error "aggregate calls are not allowed in WHERE")
    where_conjuncts;
  let pool =
    pool_of
      (where_conjuncts
      @ (match combined with Some f -> on_conjuncts f | None -> []))
  in
  let protected = match combined with Some f -> protected_ranges f | None -> [] in
  (* 3. Plan the join tree with pushdown. *)
  let input =
    match combined with
    | None -> Plan.One_row
    | Some fref -> plan_fref pctx layout pool protected fref
  in
  (* Any conjunct not consumed (e.g. inside an outer-join-only FROM) runs
     as a final filter. *)
  let leftovers = List.filter (fun c -> not c.used) pool in
  let input =
    filter_over pctx layout ~shift:0 (List.map (fun c -> c.expr) leftovers) input
  in
  (* 4. ORDER BY rewriting: ordinals and output aliases. *)
  let item_exprs =
    List.map
      (function
        | Ast.Sel_expr (e, alias) -> Some (e, alias)
        | Ast.Sel_star _ -> None)
      s.Ast.items
  in
  let rewrite_order_expr e =
    match e with
    | Ast.Lit (Ast.L_int n) -> (
      match List.nth_opt item_exprs (n - 1) with
      | Some (Some (e, _)) -> e
      | Some None | None -> plan_error "ORDER BY position %d is not selectable" n)
    | Ast.Column (None, name) -> (
      let matches =
        List.filter_map
          (function
            | Some (e, Some alias) when String.equal (lc alias) (lc name) ->
              Some e
            | _ -> None)
          item_exprs
      in
      match matches with [ e' ] -> e' | [] -> e | _ -> plan_error "ambiguous ORDER BY name %s" name)
    | e -> e
  in
  let order_by = List.map (fun (e, d) -> (rewrite_order_expr e, d)) s.Ast.order_by in
  (* GROUP BY accepts the same ordinals/aliases as ORDER BY. *)
  let s = { s with Ast.group_by = List.map rewrite_order_expr s.Ast.group_by } in
  (* 5. Aggregation analysis. *)
  let select_exprs =
    List.filter_map (function Some (e, _) -> Some e | None -> None) item_exprs
  in
  let exprs_with_aggs =
    select_exprs @ Option.to_list s.Ast.having @ List.map fst order_by
  in
  let aggregated =
    s.Ast.group_by <> [] || List.exists (contains_agg pctx.ext) exprs_with_aggs
  in
  let has_star =
    List.exists (function Ast.Sel_star _ -> true | Ast.Sel_expr _ -> false)
      s.Ast.items
  in
  if aggregated && has_star then
    plan_error "SELECT * cannot be combined with aggregation";
  let input, post_env =
    if not aggregated then begin
      let env =
        Expr_eval.base_env ~ext:pctx.ext
          ~plan_subquery:(subquery_hook ~outer:(layout, 0) pctx)
          ~resolve_column:(fun q n -> resolve_in layout q n)
          ()
      in
      (input, env)
    end
    else begin
      (* Collect the distinct aggregate calls appearing anywhere. *)
      let norm = normalize layout in
      let keys_norm = List.map norm s.Ast.group_by in
      let record e =
        fold_expr
          (fun acc sub ->
            if is_agg_call pctx.ext sub then begin
              let n = norm sub in
              if not (List.exists (fun (n', _) -> n' = n) acc) then
                acc @ [ (n, sub) ]
              else acc
            end
            else acc)
          [] e
      in
      let all_calls =
        List.fold_left
          (fun acc e ->
            List.fold_left
              (fun acc (n, sub) ->
                if List.exists (fun (n', _) -> n' = n) acc then acc
                else acc @ [ (n, sub) ])
              acc (record e))
          [] exprs_with_aggs
      in
      (* Build aggregate specs. *)
      let agg_impl_of name =
        match lc name with
        | "count" -> Plan.Agg_count
        | "sum" -> Plan.Agg_sum
        | "avg" -> Plan.Agg_avg
        | "min" -> Plan.Agg_min
        | "max" -> Plan.Agg_max
        | other -> (
          match Extension.find_aggregate pctx.ext other with
          | Some agg -> Plan.Agg_user (agg, other)
          | None -> plan_error "unknown aggregate %s" name)
      in
      let compile_agg_arg name a =
        if contains_agg pctx.ext a then
          plan_error "nested aggregate calls are not allowed";
        ignore name;
        Some (compile_shifted pctx layout ~shift:0 a)
      in
      let make_spec (_, call) =
        match call with
        | Ast.Count_star ->
          { Plan.impl = Plan.Agg_count_star; arg = None; distinct = false;
            agg_label = "count(*)" }
        | Ast.Call (name, args) ->
          let arg =
            match args with
            | [ a ] -> compile_agg_arg name a
            | _ -> plan_error "aggregate %s takes exactly one argument" name
          in
          { Plan.impl = agg_impl_of name; arg; distinct = false;
            agg_label = Pretty.expr_to_string call }
        | Ast.Call_distinct (name, a) ->
          { Plan.impl = agg_impl_of name;
            arg = compile_agg_arg name a;
            distinct = true;
            agg_label = Pretty.expr_to_string call }
        | _ -> assert false
      in
      let specs = List.map make_spec all_calls in
      let keys = List.map (compile_shifted pctx layout ~shift:0) s.Ast.group_by in
      let label =
        Printf.sprintf "keys=[%s] aggs=[%s]"
          (String.concat ", " (List.map Pretty.expr_to_string s.Ast.group_by))
          (String.concat ", " (List.map (fun sp -> sp.Plan.agg_label) specs))
      in
      let agg_plan = Plan.Aggregate { input; keys; aggs = specs; label } in
      (* Post-aggregation environment: slots for keys then agg calls. *)
      let slots =
        List.mapi (fun i n -> (n, i)) keys_norm
        @ List.mapi
            (fun i (n, _) -> (n, List.length keys_norm + i))
            all_calls
      in
      let slot_of e =
        match norm e with
        | n -> List.assoc_opt n slots
        | exception Plan_error _ -> None
      in
      let env =
        { Expr_eval.resolve_column =
            (fun _ n ->
              plan_error "column %s must appear in GROUP BY or an aggregate" n);
          slot_of;
          ext = pctx.ext;
          plan_subquery = subquery_hook pctx }
      in
      (agg_plan, env)
    end
  in
  (* 6. HAVING. *)
  let input =
    match s.Ast.having with
    | None -> input
    | Some e ->
      if not aggregated then plan_error "HAVING requires aggregation";
      let pred = Expr_eval.compile post_env e in
      Plan.Filter
        { input; pred; bpred = Expr_eval.batch_of_predicate pred;
          label = Pretty.expr_to_string e }
  in
  (* 7. ORDER BY (pre-projection; Distinct preserves order above). A
     lone table with no WHERE, ordered by one ascending column, may be
     read through an index in that order instead of sorted. *)
  let sorted_scan =
    match order_by, frefs, pool with
    | [ (Ast.Column (q, n), Ast.Asc) ], [ F_base (B_table table, _) ], []
      when (not aggregated) && not s.Ast.distinct -> (
      match resolve_in layout q n with
      | col -> Access_path.ordered_scan table col
      | exception Plan_error _ -> None)
    | _ -> None
  in
  let input =
    match sorted_scan with
    | Some scan -> scan
    | None when order_by = [] -> input
    | None -> begin
      let by =
        List.map (fun (e, d) -> (Expr_eval.compile post_env e, d)) order_by
      in
      let label =
        String.concat ", "
          (List.map
             (fun (e, d) ->
               Pretty.expr_to_string e
               ^ match d with Ast.Asc -> "" | Ast.Desc -> " DESC")
             order_by)
      in
      Plan.Sort { input; by; label }
    end
  in
  (* 8. Projection with star expansion. *)
  let projections =
    List.concat_map
      (fun item ->
        match item with
        | Ast.Sel_star None ->
          List.concat_map
            (fun b ->
              List.mapi
                (fun i name ->
                  let idx = b.offset + i in
                  ((fun _ row -> row.(idx)), name))
                (Array.to_list b.col_names))
            layout.bindings
        | Ast.Sel_star (Some q) -> (
          match
            List.find_opt (fun b -> b.qual = Some (lc q)) layout.bindings
          with
          | None -> plan_error "unknown table or alias %s" q
          | Some b ->
            List.mapi
              (fun i name ->
                let idx = b.offset + i in
                ((fun _ row -> row.(idx)), name))
              (Array.to_list b.col_names))
        | Ast.Sel_expr (e, alias) ->
          let name =
            match alias with
            | Some a -> a
            | None -> (
              match e with
              | Ast.Column (_, n) -> n
              | Ast.Call (f, _) -> lc f
              | Ast.Count_star -> "count"
              | Ast.Cast (Ast.Column (_, n), _) -> n
              | _ -> Pretty.expr_to_string e)
          in
          [ (Expr_eval.compile post_env e, name) ])
      s.Ast.items
  in
  let exprs = Array.of_list (List.map fst projections) in
  let names = Array.of_list (List.map snd projections) in
  let plan = Plan.Project { input; exprs; names } in
  (* 9. DISTINCT then LIMIT. *)
  let plan = if s.Ast.distinct then Plan.Distinct plan else plan in
  let plan =
    match s.Ast.limit, s.Ast.offset with
    | None, None -> plan
    | limit, offset -> Plan.Limit { input = plan; limit; offset }
  in
  (plan, names)

(* UNION [ALL] trees: plan each arm, require matching arity, append, and
   deduplicate for plain UNION. Output names come from the first arm. *)
and plan_compound pctx catalog (c : Ast.compound) : Plan.t * string array =
  match c with
  | Ast.Simple s -> plan_select pctx catalog s
  | Ast.Union { all; left; right } ->
    let lplan, lnames = plan_compound pctx catalog left in
    let rplan, rnames = plan_compound pctx catalog right in
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
  let pctx = { ext; ectx; catalog } in
  plan_select pctx catalog select

let plan_union ~ext ~ectx catalog compound =
  let pctx = { ext; ectx; catalog } in
  plan_compound pctx catalog compound

(* A subquery runner for standalone expressions (INSERT value lists,
   SET NOW): no outer scope, so correlation fails with an
   unknown-column error. *)
let subquery_runner ~ext ~ectx catalog =
  let pctx = { ext; ectx; catalog } in
  subquery_hook pctx

(* A subquery runner for single-table DML predicates: the table's row is
   the outer scope, so UPDATE/DELETE WHERE clauses may correlate. *)
let subquery_runner_for_table ~ext ~ectx catalog schema =
  let pctx = { ext; ectx; catalog } in
  let col_names = Array.map (fun c -> c.Schema.name) schema.Schema.columns in
  let layout =
    { bindings =
        [ { qual = Some schema.Schema.table_name; col_names; offset = 0 } ];
      width = Array.length col_names }
  in
  subquery_hook ~outer:(layout, 0) pctx

(* The access path of a single-table UPDATE/DELETE: the scan a SELECT
   over [table] named [qual] with the same WHERE would take. Only
   conjuncts the SELECT would push to the scan qualify; the caller
   rechecks the whole WHERE on every row the scan yields. *)
let dml_access_path ~ext ~ectx catalog ~qual table where =
  let col_names =
    Array.map (fun c -> c.Schema.name) (Table.schema table).Schema.columns
  in
  let binding = { qual = Some (lc qual); col_names; offset = 0 } in
  let pushable e = not (contains_agg ext e || contains_subquery e) in
  let exprs = List.filter pushable (Option.fold ~none:[] ~some:conjuncts where) in
  fst
    (Access_path.choose table
       (table_sargs { ext; ectx; catalog } binding (Table.schema table) exprs))

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
