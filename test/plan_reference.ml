(* A naive, list-at-a-time evaluator of physical plans: the oracle the
   executor is compared against. Every operator materializes its whole
   input as a list and works row by row. Filters go through
   [Expr_eval.to_predicate] on [Filter.pred], never the fused chunk
   kernels; joins, grouping, sorting, DISTINCT and LIMIT are written out
   here, aggregates included. It shares only the plan's compiled
   closures (and a blade aggregate's own [create]) with the engine. *)

open Tip_storage
module Db = Tip_engine.Database
module Plan = Tip_engine.Plan
module Planner = Tip_engine.Planner
module Expr_eval = Tip_engine.Expr_eval
module Executor = Tip_engine.Executor
module Extension = Tip_engine.Extension
module Ast = Tip_sql.Ast

module Key = Hashtbl.Make (struct
  type t = Value.t list

  let equal a b = List.length a = List.length b && List.for_all2 Value.equal a b
  let hash = List.fold_left (fun h v -> (h * 31) + Value.hash v) 17
end)

let rows_of table rids = List.filter_map (Table.get table) rids
let eval_all ctx exprs row = List.map (fun c -> c ctx row) exprs

let rec drop n = function _ :: rest when n > 0 -> drop (n - 1) rest | l -> l
let take n l = List.filteri (fun i _ -> i < n) l

let compare_keys by ka kb =
  let rec go ka kb by =
    match ka, kb, by with
    | a :: ka, b :: kb, (_, dir) :: by ->
      let c = Value.compare a b in
      let c = match dir with Ast.Asc -> c | Ast.Desc -> -c in
      if c <> 0 then c else go ka kb by
    | _ -> 0
  in
  go ka kb by

(* --- Aggregates ----------------------------------------------------------- *)

(* One aggregate's accumulator for one group, folded row by row in input
   order, so an error surfaces at the row where the executor's fold
   meets it. A blade aggregate gets an instance of its own per group,
   stepped as group 0. *)
type acc = {
  spec : Plan.agg_spec;
  mutable n : int; (* inputs folded *)
  mutable sum : Value.t; (* SUM/AVG: running sum; MIN/MAX: best so far *)
  mutable seen : Value.t list; (* DISTINCT: inputs folded so far *)
  user : Extension.grouped option;
}

let new_acc ctx (spec : Plan.agg_spec) =
  { spec; n = 0; sum = Value.Null; seen = [];
    user =
      (match spec.impl with
      | Plan.Agg_user (agg, _) -> Some (agg.Extension.create ~now:ctx.Expr_eval.now)
      | _ -> None) }

let add a b =
  match a, b with
  | Value.Int x, Value.Int y -> Value.Int (x + y)
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
    Value.Float (Value.to_float a +. Value.to_float b)
  | _ ->
    raise
      (Executor.Exec_error
         (Printf.sprintf "SUM/AVG over non-numeric %s" (Value.type_name b)))

let fold_acc ctx acc row =
  match acc.spec.arg with
  | None -> acc.n <- acc.n + 1 (* COUNT( * ) *)
  | Some arg ->
    let v = arg ctx row in
    if (not (Value.is_null v))
       && not (acc.spec.distinct && List.exists (Value.equal v) acc.seen)
    then begin
      if acc.spec.distinct then acc.seen <- v :: acc.seen;
      acc.n <- acc.n + 1;
      let better c =
        match acc.spec.impl with Plan.Agg_min -> c < 0 | _ -> c > 0
      in
      match acc.spec.impl with
      | Plan.Agg_count_star | Plan.Agg_count -> ()
      | Plan.Agg_sum | Plan.Agg_avg ->
        acc.sum <- (if Value.is_null acc.sum then v else add acc.sum v)
      | Plan.Agg_min | Plan.Agg_max ->
        if Value.is_null acc.sum || better (Value.compare v acc.sum) then acc.sum <- v
      | Plan.Agg_user _ -> (Option.get acc.user).step 0 v
    end

let final_acc acc =
  match acc.spec.impl with
  | Plan.Agg_count_star | Plan.Agg_count -> Value.Int acc.n
  | Plan.Agg_sum | Plan.Agg_min | Plan.Agg_max -> acc.sum
  | Plan.Agg_avg ->
    if acc.n = 0 then Value.Null
    else Value.Float (Value.to_float acc.sum /. float_of_int acc.n)
  | Plan.Agg_user _ -> (Option.get acc.user).final 0

let rec eval ctx (plan : Plan.t) : Value.t array list =
  match plan with
  | Plan.Seq_scan { table; _ } -> rows_of table (Table.rids table)
  | Plan.Index_scan { table; btree; lo; hi; _ } ->
    rows_of table (Btree.range btree ~lo ~hi)
  | Plan.Interval_scan { table; index; lo; hi; _ } ->
    (* the candidates, in rid order *)
    let hits = Interval_index.query_overlaps index ~lo ~hi in
    rows_of table (List.filter (fun rid -> List.mem rid hits) (Table.rids table))
  | Plan.Filter { input; pred; _ } ->
    List.filter (Expr_eval.to_predicate pred ctx) (eval ctx input)
  | Plan.Project { input; exprs; _ } ->
    List.map (fun row -> Array.map (fun c -> c ctx row) exprs) (eval ctx input)
  | Plan.Nested_loop { left; right } ->
    let right = eval ctx right in
    List.concat_map (fun l -> List.map (Array.append l) right) (eval ctx left)
  | Plan.Hash_join { left; right; left_keys; right_keys; build_left; _ } ->
    let build, probe, build_keys, probe_keys =
      if build_left then (left, right, left_keys, right_keys)
      else (right, left, right_keys, left_keys)
    in
    let has_null = List.exists Value.is_null in
    let build =
      List.filter_map
        (fun row ->
          let key = eval_all ctx build_keys row in
          if has_null key then None else Some (key, row))
        (eval ctx build)
    in
    List.concat_map
      (fun prow ->
        let key = eval_all ctx probe_keys prow in
        if has_null key then []
        else
          List.filter_map
            (fun (bkey, brow) ->
              if List.for_all2 Value.equal key bkey then
                Some (if build_left then Array.append brow prow else Array.append prow brow)
              else None)
            build)
      (eval ctx probe)
  | Plan.Left_outer_join { left; right; on; right_width; _ } ->
    let right = eval ctx right in
    List.concat_map
      (fun l ->
        match
          List.filter (fun r -> Expr_eval.to_predicate on ctx (Array.append l r)) right
        with
        | [] -> [ Array.append l (Array.make right_width Value.Null) ]
        | matches -> List.map (Array.append l) matches)
      (eval ctx left)
  | Plan.Aggregate { input; keys; aggs; _ } ->
    let groups = Key.create 16 and order = ref [] in
    let group key =
      let accs = List.map (new_acc ctx) aggs in
      order := (key, accs) :: !order;
      accs
    in
    List.iter
      (fun row ->
        let key = eval_all ctx keys row in
        let accs =
          match Key.find_opt groups key with
          | Some accs -> accs
          | None ->
            let accs = group key in
            Key.add groups key accs;
            accs
        in
        List.iter (fun acc -> fold_acc ctx acc row) accs)
      (eval ctx input);
    (match !order, keys with [], [] -> ignore (group []) | _ -> ());
    List.map
      (fun (key, accs) -> Array.of_list (key @ List.map final_acc accs))
      (List.rev !order)
  | Plan.Sort { input; by; _ } ->
    let by_exprs = List.map fst by in
    List.map snd
      (List.stable_sort
         (fun (ka, _) (kb, _) -> compare_keys by ka kb)
         (List.map (fun row -> (eval_all ctx by_exprs row, row)) (eval ctx input)))
  | Plan.Distinct input ->
    let seen = Key.create 16 in
    List.filter
      (fun row ->
        let key = Array.to_list row in
        (not (Key.mem seen key)) && (Key.add seen key (); true))
      (eval ctx input)
  | Plan.Limit { input; limit; offset } ->
    let rows = drop (Option.value offset ~default:0) (eval ctx input) in
    (match limit with Some n -> take n rows | None -> rows)
  | Plan.Append inputs -> List.concat_map (eval ctx) inputs
  | Plan.Partition_scan { children; _ } -> List.concat_map (eval ctx) children
  | Plan.One_row -> [ [||] ]
  | Plan.Virtual_scan { produce; _ } -> produce ()
  | Plan.Instrument { input; _ } -> eval ctx input

(* Plans the SELECT or UNION [stmt] on [db] as [Database.exec] does,
   under the same NOW, and evaluates the plan with [eval]. *)
let run_statement db stmt =
  let ext = Db.extension db and catalog = Db.catalog db in
  let now =
    match Db.now_override db with Some c -> c | None -> Tip_core.Tx_clock.now ()
  in
  let ctx =
    { Expr_eval.now; params = []; ext; token = Tip_core.Deadline.never; poll_tick = 0 }
  in
  match stmt with
  | Ast.Select s -> eval ctx (fst (Planner.plan ~ext ~ectx:ctx catalog s))
  | Ast.Select_compound c -> eval ctx (fst (Planner.plan_union ~ext ~ectx:ctx catalog c))
  | _ -> invalid_arg "Plan_reference.run_statement: not a query"

(* Floats print in hexadecimal, so equal text means equal bits. *)
let show_rows rows =
  List.map
    (fun row ->
      String.concat "|"
        (Array.to_list
           (Array.map
              (function
                | Value.Float f -> Printf.sprintf "%h" f
                | v -> Value.to_display_string v)
              row)))
    rows

(* A query's outcome, executed ([Database.exec_statement]) or evaluated
   here: its rows, or the exception it raised. *)
let outcome f =
  match show_rows (f ()) with
  | rows -> Ok rows
  | exception e -> Error (Printexc.to_string e)

let executed db stmt = outcome (fun () -> Db.rows_exn (Db.exec_statement db ~params:[] stmt))
let expected db stmt = outcome (fun () -> run_statement db stmt)

let show_outcome = function
  | Ok rows -> String.concat "," rows
  | Error e -> "raised " ^ e

(* The differential check: the executor returns exactly the reference's
   rows, in the same order, or raises the same error. *)
let check db name sql =
  let stmt = Tip_sql.Parser.parse sql in
  Alcotest.(check string)
    (name ^ " (executor = reference)")
    (show_outcome (expected db stmt))
    (show_outcome (executed db stmt))
