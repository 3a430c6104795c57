(* Name binding: the one owner of table and column names.

   A statement is bound once, against the catalog and the extension
   registry, into scopes the planner compiles against. FROM items get
   global column offsets left to right; a binding is one item's
   qualifier and column names at its offset. The binder decides which
   stored table, partitioned parent, virtual table, history table or
   derived query each FROM name denotes; which binding a column
   reference denotes (inner scope first, then one level of
   correlation); what ORDER BY and GROUP BY ordinals and output aliases
   stand for; which calls are aggregates and which slot each fills; and
   what a star expands to. The only literals it reads are those
   ordinals. It evaluates nothing: the AS OF instant, access paths,
   joins and compilation are the planner's. *)

open Tip_storage
module Ast = Tip_sql.Ast
module Pretty = Tip_sql.Pretty

exception Plan_error of string

let plan_error fmt = Format.kasprintf (fun s -> raise (Plan_error s)) fmt

type binding = {
  qual : string option; (* alias or table name, lowercase *)
  col_names : string array;
  offset : int;
}

type layout = binding list

let lc = String.lowercase_ascii

(* --- Column resolution --------------------------------------------------- *)

let resolve_in layout q name =
  let name = lc name in
  match q with
  | Some q ->
    let q = lc q in
    (match List.find_opt (fun b -> b.qual = Some q) layout with
    | None -> plan_error "unknown table or alias %s" q
    | Some b -> (
      match Array.find_index (String.equal name) b.col_names with
      | Some i -> b.offset + i
      | None -> plan_error "no column %s in %s" name q))
  | None -> (
    let at b = Option.map (( + ) b.offset) (Array.find_index (String.equal name) b.col_names) in
    match List.filter_map at layout with
    | [ i ] -> i
    | [] -> plan_error "unknown column %s" name
    | _ :: _ :: _ -> plan_error "ambiguous column %s" name)

(* --- Expression analysis --------------------------------------------------- *)

let rec fold_expr f acc e =
  List.fold_left (fold_expr f) (f acc e) (Ast.children e)

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

let contains_subquery e =
  let sub = function Ast.Exists _ | Ast.In_select _ | Ast.Scalar_subquery _ -> true | _ -> false in
  fold_expr (fun acc e -> acc || sub e) false e

(* --- Bound statements ------------------------------------------------------ *)

type source =
  | Stored of Table.t
  | Partitioned of Partition.t
  | Virtual of Vtab.provider
  | History of {
      table : Table.t;
      tt : int;
      at : Ast.expr;
      support : Extension.history_support;
    }
  | Derived of select

and from =
  | Base of source * binding
  | Join of from * Ast.join_kind * Ast.expr option * from

and scope =
  | Rows of layout
  | Groups of {
      input : layout;
      keys : Ast.expr list;
      calls : Ast.expr list;
      slots : (Ast.expr * int) list;
    }

and item = Col of int | Expr of Ast.expr

and select = {
  from : from option;
  layout : layout;
  where : Ast.expr list;
  scope : scope;
  having : Ast.expr option;
  order_by : (Ast.expr * Ast.order_direction) list;
  items : (item * string) list;
  distinct : bool;
  limit : int option;
  offset : int option;
}

let empty_scope = Rows []

let table_scope ~qual schema =
  let col_names = Array.map (fun c -> c.Schema.name) schema.Schema.columns in
  Rows [ { qual = Some (lc qual); col_names; offset = 0 } ]

let column scope ~shift q name =
  match scope with
  | Groups _ -> None
  | Rows layout -> (
    match resolve_in layout q name with
    | i -> Some (i - shift)
    | exception Plan_error _ -> None)

(* The compile-time environment of [scope], row offsets shifted down by
   [shift]. After aggregation only group keys and aggregate calls have
   slots; any other column reference is an error. *)
let env ext scope ~shift ~plan_subquery =
  match scope with
  | Rows layout ->
    Expr_eval.base_env ~ext ~plan_subquery
      ~resolve_column:(fun q n -> resolve_in layout q n - shift)
      ()
  | Groups { input; slots; _ } ->
    { Expr_eval.resolve_column =
        (fun _ n -> plan_error "column %s must appear in GROUP BY or an aggregate" n);
      slot_of =
        (fun e ->
          match normalize input e with
          | n -> List.assoc_opt n slots
          | exception Plan_error _ -> None);
      ext;
      plan_subquery }

(* --- FROM ------------------------------------------------------------------- *)

let rec bind_ref ext catalog offset table_ref =
  let base source qual col_names =
    ( Base (source, { qual = Some (lc qual); col_names; offset }),
      offset + Array.length col_names )
  in
  match table_ref with
  | Ast.Table { name; alias; as_of = None } -> (
    let qual = Option.value alias ~default:name in
    match Catalog.target catalog name with
    | Some { Catalog.tg_schema; tg_partitioned; tg_tables; _ } ->
      let cols = Array.map (fun c -> c.Schema.name) tg_schema.Schema.columns in
      let pt = Option.map (fun pt -> Partitioned pt) tg_partitioned in
      base (Option.value pt ~default:(Stored (List.hd tg_tables))) qual cols
    | None -> (
      (* Catalog miss: the name may be a registered virtual table (a
         tip_stat relation). A real table always shadows a virtual one. *)
      match Vtab.find name with
      | None -> plan_error "no such table: %s" name
      | Some p -> base (Virtual p) qual p.Vtab.vt_cols))
  | Ast.Table { name; alias; as_of = Some at } ->
    (* Time travel reads the WITH HISTORY shadow table without its _tt
       column, so the reference looks exactly like the base table. *)
    let support =
      match Extension.history_support ext with
      | Some s -> s
      | None ->
        plan_error "AS OF requires a temporal blade with history support"
    in
    let table, tt =
      match Catalog.history_of catalog name with
      | Some link -> link
      | None -> plan_error "table %s has no transaction-time history" name
    in
    base
      (History { table; tt; at; support })
      (Option.value alias ~default:name)
      (Array.init tt (fun i -> lc (Schema.column (Table.schema table) i).Schema.name))
  | Ast.Derived { query; alias } ->
    let sel = bind ext catalog query in
    base (Derived sel) alias
      (Array.of_list (List.map (fun (_, name) -> lc name) sel.items))
  | Ast.Join { left; kind; right; on } ->
    let l, offset = bind_ref ext catalog offset left in
    let r, offset = bind_ref ext catalog offset right in
    (Join (l, kind, Some on, r), offset)

(* The FROM list as one tree (commas are inner joins without ON) and
   its layout. *)
and bind_from ext catalog refs =
  let rec bindings = function
    | Base (_, b) -> [ b ]
    | Join (l, _, _, r) -> bindings l @ bindings r
  in
  let froms, _ =
    List.fold_left
      (fun (acc, offset) r ->
        let f, offset = bind_ref ext catalog offset r in
        (f :: acc, offset))
      ([], 0) refs
  in
  match List.rev froms with
  | [] -> (None, [])
  | first :: rest ->
    let f = List.fold_left (fun acc r -> Join (acc, Ast.Inner, None, r)) first rest in
    (Some f, bindings f)

(* --- SELECT ----------------------------------------------------------------- *)

(* The group keys' and aggregate calls' slots: keys first, then every
   distinct call (compared after normalization) in order of appearance. *)
and group ext input keys exprs =
  let norm = normalize input in
  let add acc e =
    if not (is_agg_call ext e) then acc
    else
      let n = norm e in
      if List.exists (fun (n', _) -> n' = n) acc then acc else acc @ [ (n, e) ]
  in
  let calls = List.fold_left (fold_expr add) [] exprs in
  List.iter
    (fun (_, call) ->
      match call with
      | Ast.Call (_, [ a ]) | Ast.Call_distinct (_, a) ->
        if contains_agg ext a then plan_error "nested aggregate calls are not allowed"
      | Ast.Call (name, _) -> plan_error "aggregate %s takes exactly one argument" name
      | _ -> ())
    calls;
  let nkeys = List.length keys in
  Groups
    { input; keys; calls = List.map snd calls;
      slots =
        List.mapi (fun i k -> (norm k, i)) keys
        @ List.mapi (fun i (n, _) -> (n, nkeys + i)) calls }

(* Binds everything but FROM, already bound to [from] and [layout]. *)
and finish ext from layout (s : Ast.select) =
  let where = Option.fold ~none:[] ~some:conjuncts s.Ast.where in
  if List.exists (contains_agg ext) where then
    plan_error "aggregate calls are not allowed in WHERE";
  let item_exprs =
    List.map
      (function Ast.Sel_expr (e, alias) -> Some (e, alias) | Ast.Sel_star _ -> None)
      s.Ast.items
  in
  (* ORDER BY and GROUP BY accept output ordinals and aliases. *)
  let by_output e =
    match e with
    | Ast.Lit (Ast.L_int n) -> (
      match if n >= 1 then List.nth_opt item_exprs (n - 1) else None with
      | Some (Some (e, _)) -> e
      | Some None | None -> plan_error "ORDER BY position %d is not selectable" n)
    | Ast.Column (None, name) -> (
      let aliased = function Some (e, Some a) when lc a = lc name -> Some e | _ -> None in
      match List.filter_map aliased item_exprs with
      | [ e' ] -> e'
      | [] -> e
      | _ -> plan_error "ambiguous ORDER BY name %s" name)
    | e -> e
  in
  let order_by = List.map (fun (e, d) -> (by_output e, d)) s.Ast.order_by in
  let keys = List.map by_output s.Ast.group_by in
  let with_aggs =
    List.filter_map (Option.map fst) item_exprs
    @ Option.to_list s.Ast.having @ List.map fst order_by
  in
  let scope =
    if keys = [] && not (List.exists (contains_agg ext) with_aggs) then begin
      if s.Ast.having <> None then plan_error "HAVING requires aggregation";
      Rows layout
    end
    else if List.mem None item_exprs then
      plan_error "SELECT * cannot be combined with aggregation"
    else group ext layout keys with_aggs
  in
  let star (b : binding) =
    List.mapi (fun i name -> (Col (b.offset + i), name)) (Array.to_list b.col_names)
  in
  let items =
    List.concat_map
      (function
        | Ast.Sel_star None -> List.concat_map star layout
        | Ast.Sel_star (Some q) -> (
          match List.find_opt (fun b -> b.qual = Some (lc q)) layout with
          | None -> plan_error "unknown table or alias %s" q
          | Some b -> star b)
        | Ast.Sel_expr (e, alias) ->
          let name =
            match alias, e with
            | Some a, _ -> a
            | None, (Ast.Column (_, n) | Ast.Cast (Ast.Column (_, n), _)) -> n
            | None, Ast.Call (f, _) -> lc f
            | None, Ast.Count_star -> "count"
            | None, _ -> Pretty.expr_to_string e
          in
          [ (Expr e, name) ])
      s.Ast.items
  in
  { from; layout; where; scope; having = s.Ast.having; order_by; items;
    distinct = s.Ast.distinct; limit = s.Ast.limit; offset = s.Ast.offset }

and bind ext catalog (s : Ast.select) =
  let from, layout = bind_from ext catalog s.Ast.from in
  finish ext from layout s

(* A subquery of an expression compiled in [outer] at [shift]. A column
   that does not resolve in the subquery's own FROM but does in [outer]
   becomes a hidden parameter, returned with the outer row offset that
   binds it (one level of correlation; nested subqueries correlate
   against their immediate parent only). In a [Groups] scope the outer
   row is a group's, so only a group key binds, at its slot. *)
let subquery ext catalog ~outer ~shift (s : Ast.select) =
  let from, inner = bind_from ext catalog s.Ast.from in
  let corr = ref [] in
  (* [None] when [outer] does not know the column either *)
  let outer_offset q n =
    match outer with
    | Rows layout -> (
      match resolve_in layout q n with i -> Some i | exception Plan_error _ -> None)
    | Groups { input; slots; _ } -> (
      match List.assoc_opt (normalize input (Ast.Column (q, n))) slots with
      | Some slot -> Some slot
      | None -> plan_error "column %s must appear in GROUP BY or an aggregate" n
      | exception Plan_error _ -> None)
  in
  let rec rw e =
    match e with
    | Ast.Column (q, n) -> (
      match resolve_in inner q n with
      | _ -> e (* inner scope wins, as SQL scoping requires *)
      | exception Plan_error _ -> (
        match outer_offset q n with
        | Some abs ->
          let name = Printf.sprintf "__corr_%d" (List.length !corr) in
          corr := (name, abs - shift) :: !corr;
          Ast.Param name
        | None -> e (* reported as unknown when compiled *)))
    | _ -> Ast.map_children rw e
  in
  let rec rw_from = function
    | Join (l, kind, on, r) -> Join (rw_from l, kind, Option.map rw on, rw_from r)
    | Base _ as b -> b
  in
  let item = function Ast.Sel_expr (e, a) -> Ast.Sel_expr (rw e, a) | star -> star in
  let s =
    { s with
      Ast.items = List.map item s.Ast.items;
      where = Option.map rw s.Ast.where;
      group_by = List.map rw s.Ast.group_by;
      having = Option.map rw s.Ast.having;
      order_by = List.map (fun (e, d) -> (rw e, d)) s.Ast.order_by }
  in
  let bound = finish ext (Option.map rw_from from) inner s in
  (bound, List.rev !corr)
