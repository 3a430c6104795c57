(* Expression compilation and evaluation.

   Expressions compile once (per statement) into closures over a row and
   an evaluation context; evaluation then does no name resolution. SQL's
   three-valued logic is implemented here: NULL propagates through
   operators, AND/OR follow Kleene logic, and WHERE treats unknown as
   false (the caller converts with [to_predicate]).

   Built-in semantics cover the base types; any combination the engine
   does not know falls through to the extension registry, keyed by the
   operator symbol — that is how [chronon + span] or [chronon < NOW-7]
   becomes meaningful once the TIP blade is installed. *)

open Tip_storage
module Ast = Tip_sql.Ast
module Pretty = Tip_sql.Pretty

exception Eval_error of string

let eval_error fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

type ctx = {
  now : Tip_core.Chronon.t;
  params : (string * Value.t) list;
  ext : Extension.t;
  token : Tip_core.Deadline.t;
  mutable poll_tick : int;
}

type compiled = ctx -> Value.t array -> Value.t

(* --- Cooperative cancellation ------------------------------------------- *)

(* The executor and the DML row loops call [tick] once per row; every
   256th tick performs a real poll (atomic load + possible clock read).
   [poll] is also a failpoint site so tests can fire a cancellation at
   an exact chunk boundary: arming [exec.poll:k:fail=cancel] turns the
   k-th poll into [cancel token] before the check, which is how the
   differential fuzz walks the cancellation window deterministically. *)

let poll_site = "exec.poll"

let poll ctx =
  (if Failpoint.active () then
     match Failpoint.hit ~site:poll_site () with
     | () -> ()
     | exception Failure msg
       when String.length msg >= 6 && String.sub msg 0 6 = "cancel" ->
         let reason =
           match msg with
           | "cancel-shutdown" -> Tip_core.Deadline.Shutdown
           | "cancel-client" -> Tip_core.Deadline.Client_gone
           | _ -> Tip_core.Deadline.Timeout
         in
         Tip_core.Deadline.cancel ctx.token reason);
  Tip_core.Deadline.check ctx.token

(* Poll every 256 rows in production; with failpoints armed, poll every
   row so injected cancellations land at exact row boundaries (traces in
   the fuzz touch tables far smaller than the production interval). *)
let tick ctx =
  let n = ctx.poll_tick + 1 in
  ctx.poll_tick <- n;
  if n land 255 = 0 || Failpoint.active () then poll ctx

(* A planned subquery: [sq_run ctx outer_row] produces its rows.
   Non-correlated subqueries ignore the outer row (and get cached once
   per statement); correlated ones read outer columns through hidden
   parameters bound per row. *)
type subquery_exec = {
  sq_run : ctx -> Value.t array -> Value.t array list;
  sq_correlated : bool;
}

type env = {
  resolve_column : string option -> string -> int;
  slot_of : Ast.expr -> int option;
    (* pre-computed slots (group keys / aggregate results); checked at
       every node so post-aggregation expressions can reference them *)
  ext : Extension.t;
  plan_subquery : Ast.select -> subquery_exec;
    (* provided by the planner; must be stable (same select, same
       answer), since both compilation and the row-free analysis call
       it *)
}

let no_subqueries _select =
  eval_error "subqueries are not allowed in this context"

let base_env ?(plan_subquery = no_subqueries) ~ext ~resolve_column () =
  { resolve_column; slot_of = (fun _ -> None); ext; plan_subquery }

(* --- Built-in operator semantics ---------------------------------------- *)

let arith_int_float op_int op_float a b =
  match a, b with
  | Value.Int x, Value.Int y -> Some (Value.Int (op_int x y))
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
    Some (Value.Float (op_float (Value.to_float a) (Value.to_float b)))
  | _, _ -> None

let builtin_binop op a b =
  match op with
  | Ast.Add -> (
    match a, b with
    | Value.Date d, Value.Int n ->
      Some (Value.Date (Tip_core.Chronon.add d (Tip_core.Span.of_days n)))
    | Value.Int n, Value.Date d ->
      Some (Value.Date (Tip_core.Chronon.add d (Tip_core.Span.of_days n)))
    | _, _ -> arith_int_float ( + ) ( +. ) a b)
  | Ast.Sub -> (
    match a, b with
    | Value.Date d, Value.Int n ->
      Some (Value.Date (Tip_core.Chronon.sub d (Tip_core.Span.of_days n)))
    | Value.Date x, Value.Date y ->
      (* Plain SQL DATE subtraction: signed whole days. *)
      let seconds = Tip_core.Span.to_seconds (Tip_core.Chronon.diff x y) in
      Some (Value.Int (seconds / Tip_core.Span.seconds_per_day))
    | _, _ -> arith_int_float ( - ) ( -. ) a b)
  | Ast.Mul -> arith_int_float ( * ) ( *. ) a b
  | Ast.Div -> (
    match a, b with
    | _, Value.Int 0 -> eval_error "division by zero"
    | _, Value.Float 0. -> eval_error "division by zero"
    | _, _ -> arith_int_float ( / ) ( /. ) a b)
  | Ast.Mod -> (
    match a, b with
    | _, Value.Int 0 -> eval_error "division by zero"
    | Value.Int x, Value.Int y -> Some (Value.Int (x mod y))
    | _, _ -> None)
  | Ast.Concat -> (
    match a, b with
    | Value.Str x, Value.Str y -> Some (Value.Str (x ^ y))
    | _, _ -> None)
  | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> (
    (* Plain SQL: a string literal compared against a DATE column reads
       as a date literal. *)
    let a, b =
      match a, b with
      | Value.Date _, Value.Str s -> (
        match Tip_core.Chronon.of_string s with
        | Some c -> (a, Value.Date (Tip_core.Chronon.start_of_day c))
        | None -> (a, b))
      | Value.Str s, Value.Date _ -> (
        match Tip_core.Chronon.of_string s with
        | Some c -> (Value.Date (Tip_core.Chronon.start_of_day c), b)
        | None -> (a, b))
      | _, _ -> (a, b)
    in
    (* Only same-kind comparisons are built in; anything else goes to the
       extension registry so that implicit casts apply (e.g. a string
       literal against a Chronon column). *)
    let same_kind =
      match a, b with
      | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) -> true
      | Value.Str _, Value.Str _ -> true
      | Value.Bool _, Value.Bool _ -> true
      | Value.Date _, Value.Date _ -> true
      | Value.Ext (n1, _), Value.Ext (n2, _) -> String.equal n1 n2
      | _, _ -> false
    in
    if not same_kind then None
    else begin
      match Value.compare a b with
      | c ->
        let r =
          match op with
          | Ast.Eq -> c = 0
          | Ast.Neq -> c <> 0
          | Ast.Lt -> c < 0
          | Ast.Le -> c <= 0
          | Ast.Gt -> c > 0
          | Ast.Ge -> c >= 0
          | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Concat
          | Ast.And | Ast.Or -> assert false
        in
        Some (Value.Bool r)
      | exception Value.Type_error _ -> None
    end)
  | Ast.And | Ast.Or -> assert false (* handled lazily in compile *)

let op_symbol = Pretty.binop_symbol

(* Per-call-site routine dispatch with inline caches for overload
   resolution and literal-argument casts (see {!Extension.caller}). *)
let routine_caller ext name = Extension.caller ext ~name

let apply_binop ext ~now op a b =
  if Value.is_null a || Value.is_null b then Value.Null
  else begin
    match builtin_binop op a b with
    | Some v -> v
    | None -> (
      match Extension.apply_routine ext ~now ~name:(op_symbol op) [| a; b |] with
      | v -> v
      | exception Extension.Resolution_error _ ->
        eval_error "operator %s undefined for %s and %s" (op_symbol op)
          (Value.type_name a) (Value.type_name b))
  end

(* [apply_binop] with a per-call-site caller on the non-builtin path, so
   overload resolution and literal-operand casts are cached across rows. *)
let binop_applier ext op =
  let call = routine_caller ext (op_symbol op) in
  fun ~now a b ->
    if Value.is_null a || Value.is_null b then Value.Null
    else begin
      match builtin_binop op a b with
      | Some v -> v
      | None -> (
        match call ~now [| a; b |] with
        | v -> v
        | exception Extension.Resolution_error _ ->
          eval_error "operator %s undefined for %s and %s" (op_symbol op)
            (Value.type_name a) (Value.type_name b))
    end

(* --- LIKE ----------------------------------------------------------------- *)

(* SQL LIKE: '%' any sequence, '_' any single character. A pattern
   compiles once into its '%'-separated segments. Each segment has a
   fixed length (literal bytes and '_'), so the first is anchored at the
   start, the last at the end, and placing every middle segment at its
   leftmost fit decides the match: an earlier placement never leaves
   less room for the segments after it. *)
let segment_at seg text pos =
  let n = String.length seg in
  let rec go i =
    i = n
    || ((seg.[i] = '_' || seg.[i] = String.unsafe_get text (pos + i))
       && go (i + 1))
  in
  go 0

let like_compile pattern =
  match String.split_on_char '%' pattern with
  | [] | [ _ ] ->
    fun text ->
      String.length text = String.length pattern && segment_at pattern text 0
  | first :: rest ->
    let last, middle =
      match List.rev rest with
      | last :: middle ->
        (last, Array.of_list (List.rev (List.filter (( <> ) "") middle)))
      | [] -> assert false (* [rest] holds at least one segment *)
    in
    let nf = String.length first and nl = String.length last in
    fun text ->
      let nt = String.length text in
      let limit = nt - nl in
      let rec place k pos =
        k = Array.length middle
        ||
        let seg = middle.(k) in
        let ns = String.length seg in
        let rec first_fit p =
          if p + ns > limit then -1
          else if segment_at seg text p then p
          else first_fit (p + 1)
        in
        let p = first_fit pos in
        p >= 0 && place (k + 1) (p + ns)
      in
      nt >= nf + nl
      && segment_at first text 0
      && segment_at last text limit
      && place 0 nf

let like_match ~pattern text = like_compile pattern text

(* --- Casts ------------------------------------------------------------------ *)

(* [expr::to_type], given [to_type] in upper case as [upper]; a cast
   through the registry is remembered in the call site's [cache]. *)
let cast_with ext cache ~upper ~to_type ~now v =
  if Value.is_null v then Value.Null
  else begin
    match upper with
    | "INT" | "INTEGER" | "BIGINT" | "SMALLINT" -> (
      match v with
      | Value.Int _ -> v
      | Value.Float f -> Value.Int (int_of_float f)
      | Value.Str s -> (
        match int_of_string_opt (String.trim s) with
        | Some n -> Value.Int n
        | None -> eval_error "cannot cast %S to INT" s)
      | Value.Bool b -> Value.Int (if b then 1 else 0)
      | Value.Ext _ -> Extension.cached_cast ext cache ~now v ~to_type:"int"
      | _ -> eval_error "cannot cast %s to INT" (Value.type_name v))
    | "FLOAT" | "REAL" | "DOUBLE" | "DECIMAL" | "NUMERIC" -> (
      match v with
      | Value.Float _ -> v
      | Value.Int n -> Value.Float (float_of_int n)
      | Value.Str s -> (
        match float_of_string_opt (String.trim s) with
        | Some f -> Value.Float f
        | None -> eval_error "cannot cast %S to FLOAT" s)
      | Value.Ext _ -> Extension.cached_cast ext cache ~now v ~to_type:"float"
      | _ -> eval_error "cannot cast %s to FLOAT" (Value.type_name v))
    | "CHAR" | "VARCHAR" | "TEXT" | "STRING" | "CHARACTER" ->
      Value.Str (Value.to_display_string v)
    | "BOOLEAN" | "BOOL" -> (
      match v with
      | Value.Bool _ -> v
      | Value.Str ("t" | "true" | "TRUE") -> Value.Bool true
      | Value.Str ("f" | "false" | "FALSE") -> Value.Bool false
      | _ -> eval_error "cannot cast %s to BOOLEAN" (Value.type_name v))
    | "DATE" -> (
      match v with
      | Value.Date _ -> v
      | Value.Str s -> (
        match Tip_core.Chronon.of_string s with
        | Some c -> Value.Date (Tip_core.Chronon.start_of_day c)
        | None -> eval_error "cannot cast %S to DATE" s)
      | Value.Ext _ -> Extension.cached_cast ext cache ~now v ~to_type:"date"
      | _ -> eval_error "cannot cast %s to DATE" (Value.type_name v))
    | _ -> (
      (* Extension type: registered casts, or parsing a string literal. *)
      match Extension.cached_cast ext cache ~now v ~to_type with
      | v -> v
      | exception Extension.Resolution_error _ -> (
        match v, Value.lookup_type to_type with
        | Value.Str s, Some vt -> vt.Value.parse s
        | _, _ ->
          eval_error "no cast from %s to %s" (Value.type_name v) to_type))
  end

let cast_value ext ~now v ~to_type =
  cast_with ext (Extension.cast_cache ()) ~upper:(String.uppercase_ascii to_type)
    ~to_type ~now v

(* --- Compilation --------------------------------------------------------------- *)

let literal_value = function
  | Ast.L_int n -> Value.Int n
  | Ast.L_float f -> Value.Float f
  | Ast.L_string s -> Value.Str s
  | Ast.L_bool b -> Value.Bool b
  | Ast.L_null -> Value.Null

(* Row-free expressions (no column, no aggregate slot) are constant for
   the duration of one statement — NOW and parameters are fixed — so
   their compiled form caches the first evaluation. This is what makes a
   per-row recheck like [overlaps(valid, '{...}'::Element)] parse its
   constant once, not once per row. *)
let rec row_free env e =
  env.slot_of e = None
  &&
  match e with
  | Ast.Column _ | Ast.Count_star -> false
  (* Parameters are not cached: hidden correlation parameters change per
     outer row, and a plain lookup is cheap anyway. *)
  | Ast.Param _ -> false
  (* A correlated subquery reads the outer row through its hidden
     parameters, so it is row-dependent even though its AST children do
     not show it. *)
  | Ast.Exists q | Ast.Scalar_subquery q | Ast.In_select { query = q; _ } -> (
    (not (env.plan_subquery q).sq_correlated)
    && List.for_all (row_free env) (Ast.children e))
  | _ -> List.for_all (row_free env) (Ast.children e)

let rec compile env expr : compiled =
  match env.slot_of expr with
  | Some slot -> fun _ row -> row.(slot)
  | None ->
    let compiled = compile_node env expr in
    (match expr with
    | Ast.Lit _ | Ast.Column _ -> compiled (* already cheap *)
    | _ when row_free env expr ->
      let cache = ref None in
      fun ctx row -> (
        match !cache with
        | Some v -> v
        | None ->
          let v = compiled ctx row in
          cache := Some v;
          v)
    | _ -> compiled)

and compile_node env expr : compiled =
  match expr with
  | Ast.Lit l ->
    let v = literal_value l in
    fun _ _ -> v
  | Ast.Column (q, name) ->
    let i = env.resolve_column q name in
    fun _ row -> row.(i)
  | Ast.Param name -> (
    fun ctx _ ->
      match List.assoc_opt (String.lowercase_ascii name) ctx.params with
      | Some v -> v
      | None -> eval_error "unbound parameter :%s" name)
  | Ast.Binop (Ast.And, a, b) ->
    let ca = compile env a and cb = compile env b in
    fun ctx row -> (
      (* Kleene AND: false dominates NULL. *)
      match ca ctx row with
      | Value.Bool false -> Value.Bool false
      | Value.Bool true -> truth_value (cb ctx row)
      | Value.Null -> (
        match truth_value (cb ctx row) with
        | Value.Bool false -> Value.Bool false
        | _ -> Value.Null)
      | v -> eval_error "AND expects booleans, got %s" (Value.type_name v))
  | Ast.Binop (Ast.Or, a, b) ->
    let ca = compile env a and cb = compile env b in
    fun ctx row -> (
      match ca ctx row with
      | Value.Bool true -> Value.Bool true
      | Value.Bool false -> truth_value (cb ctx row)
      | Value.Null -> (
        match truth_value (cb ctx row) with
        | Value.Bool true -> Value.Bool true
        | _ -> Value.Null)
      | v -> eval_error "OR expects booleans, got %s" (Value.type_name v))
  | Ast.Binop (op, a, b) ->
    let ca = compile env a and cb = compile env b in
    let app = binop_applier env.ext op in
    fun ctx row -> app ~now:ctx.now (ca ctx row) (cb ctx row)
  | Ast.Unop (Ast.Not, e) ->
    let ce = compile env e in
    fun ctx row -> (
      match ce ctx row with
      | Value.Bool b -> Value.Bool (not b)
      | Value.Null -> Value.Null
      | v -> eval_error "NOT expects boolean, got %s" (Value.type_name v))
  | Ast.Unop (Ast.Neg, e) ->
    let ce = compile env e in
    let ext = env.ext in
    fun ctx row -> (
      match ce ctx row with
      | Value.Null -> Value.Null
      | Value.Int n -> Value.Int (-n)
      | Value.Float f -> Value.Float (-.f)
      | v -> (
        match Extension.apply_routine ext ~now:ctx.now ~name:"neg" [| v |] with
        | r -> r
        | exception Extension.Resolution_error _ ->
          eval_error "cannot negate %s" (Value.type_name v)))
  | Ast.Call (name, args) ->
    let cargs = Array.of_list (List.map (compile env) args) in
    let call = routine_caller env.ext name in
    fun ctx row ->
      let argv = Array.make (Array.length cargs) Value.Null in
      for i = 0 to Array.length cargs - 1 do
        argv.(i) <- cargs.(i) ctx row
      done;
      (match call ~now:ctx.now argv with
      | v -> v
      | exception Extension.Resolution_error msg -> eval_error "%s" msg)
  | Ast.Call_distinct (name, _) ->
    fun _ _ ->
      eval_error "%s(DISTINCT ...) outside aggregation context" name
  | Ast.Count_star ->
    fun _ _ -> eval_error "COUNT(*) outside aggregation context"
  | Ast.Cast (e, ty) ->
    (* the target and the registry lookup resolve once per call site *)
    let ce = compile env e and ext = env.ext in
    let upper = String.uppercase_ascii ty and cache = Extension.cast_cache () in
    fun ctx row -> cast_with ext cache ~upper ~to_type:ty ~now:ctx.now (ce ctx row)
  | Ast.Case (arms, else_) ->
    let carms = List.map (fun (c, v) -> (compile env c, compile env v)) arms in
    let celse = Option.map (compile env) else_ in
    fun ctx row ->
      let rec go = function
        | [] -> (
          match celse with Some c -> c ctx row | None -> Value.Null)
        | (cc, cv) :: rest -> (
          match cc ctx row with
          | Value.Bool true -> cv ctx row
          | Value.Bool false | Value.Null -> go rest
          | v -> eval_error "CASE expects boolean, got %s" (Value.type_name v))
      in
      go carms
  | Ast.In_list { negated; scrutinee; choices } ->
    let cs = compile env scrutinee in
    let cchoices = List.map (compile env) choices in
    let ext = env.ext in
    fun ctx row ->
      let v = cs ctx row in
      if Value.is_null v then Value.Null
      else begin
        let rec go saw_null = function
          | [] -> if saw_null then Value.Null else Value.Bool negated
          | c :: rest -> (
            match apply_binop ext ~now:ctx.now Ast.Eq v (c ctx row) with
            | Value.Bool true -> Value.Bool (not negated)
            | Value.Null -> go true rest
            | _ -> go saw_null rest)
        in
        go false cchoices
      end
  | Ast.Between { negated; scrutinee; low; high } ->
    let cs = compile env scrutinee
    and cl = compile env low
    and ch = compile env high in
    let ext = env.ext in
    fun ctx row ->
      let v = cs ctx row in
      let ge = apply_binop ext ~now:ctx.now Ast.Ge v (cl ctx row) in
      let le = apply_binop ext ~now:ctx.now Ast.Le v (ch ctx row) in
      let conj =
        match ge, le with
        | Value.Bool false, _ | _, Value.Bool false -> Value.Bool false
        | Value.Bool true, Value.Bool true -> Value.Bool true
        | _, _ -> Value.Null
      in
      (match conj with
      | Value.Bool b -> Value.Bool (if negated then not b else b)
      | v -> v)
  | Ast.Like { negated; scrutinee; pattern } ->
    let cs = compile env scrutinee and cp = compile env pattern in
    (* The call site keeps its last compiled pattern: a constant pattern
       compiles once. *)
    let last = ref ("", like_compile "") in
    let matcher pattern =
      let p, m = !last in
      if String.equal p pattern then m
      else begin
        let m = like_compile pattern in
        last := (pattern, m);
        m
      end
    in
    fun ctx row -> (
      match cs ctx row, cp ctx row with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | Value.Str text, Value.Str pattern ->
        let m = matcher pattern text in
        Value.Bool (if negated then not m else m)
      | a, b ->
        eval_error "LIKE expects strings, got %s and %s" (Value.type_name a)
          (Value.type_name b))
  | Ast.Is_null { negated; scrutinee } ->
    let cs = compile env scrutinee in
    fun ctx row ->
      let isnull = Value.is_null (cs ctx row) in
      Value.Bool (if negated then not isnull else isnull)
  | Ast.Exists q ->
    let sq = env.plan_subquery q in
    fun ctx row -> Value.Bool (sq.sq_run ctx row <> [])
  | Ast.In_select { negated; scrutinee; query } ->
    let cs = compile env scrutinee in
    let sq = env.plan_subquery query in
    let ext = env.ext in
    fun ctx row ->
      let v = cs ctx row in
      if Value.is_null v then Value.Null
      else begin
        let candidates =
          List.map
            (fun produced ->
              if Array.length produced <> 1 then
                eval_error "IN subquery must select exactly one column";
              produced.(0))
            (sq.sq_run ctx row)
        in
        let rec go saw_null = function
          | [] -> if saw_null then Value.Null else Value.Bool negated
          | c :: rest -> (
            match apply_binop ext ~now:ctx.now Ast.Eq v c with
            | Value.Bool true -> Value.Bool (not negated)
            | Value.Null -> go true rest
            | _ -> go saw_null rest)
        in
        go false candidates
      end
  | Ast.Scalar_subquery q ->
    let sq = env.plan_subquery q in
    fun ctx row -> (
      match sq.sq_run ctx row with
      | [] -> Value.Null
      | [ [| v |] ] -> v
      | [ _ ] -> eval_error "scalar subquery must select exactly one column"
      | _ :: _ :: _ -> eval_error "scalar subquery returned more than one row")

and truth_value v =
  match v with
  | Value.Bool _ | Value.Null -> v
  | _ -> eval_error "expected boolean, got %s" (Value.type_name v)

(* WHERE semantics: unknown is not true. *)
let to_predicate (c : compiled) ctx row =
  match c ctx row with
  | Value.Bool b -> b
  | Value.Null -> false
  | v -> eval_error "predicate must be boolean, got %s" (Value.type_name v)

(* --- Batch (chunk-at-a-time) predicate kernels --------------------------- *)

(* A batch predicate reads row indices from the first [n] entries of the
   selection vector, compacts the vector in place to the rows that pass
   (WHERE semantics: NULL is not true), and returns the surviving count.
   Conjuncts then run as sequential kernels over a narrowing vector, so a
   selective first conjunct shields the rest of the chunk from the more
   expensive ones. *)
type batch_pred = ctx -> Value.t array array -> sel:int array -> n:int -> int

let batch_of_predicate (c : compiled) : batch_pred =
 fun ctx rows ~sel ~n ->
  let k = ref 0 in
  for j = 0 to n - 1 do
    let i = sel.(j) in
    if to_predicate c ctx rows.(i) then begin
      sel.(!k) <- i;
      incr k
    end
  done;
  !k

let pred_truth = function
  | Value.Bool b -> b
  | Value.Null -> false
  | v -> eval_error "predicate must be boolean, got %s" (Value.type_name v)

(* Comparison kernel: integer and string pairs compare inline; NULL
   drops the row; every other combination goes through [apply_binop],
   which is exactly what the row-at-a-time closure would have done. *)
let cmp_kernel op ca cb ext : batch_pred =
  let test : int -> int -> bool =
    match op with
    | Ast.Eq -> ( = )
    | Ast.Neq -> ( <> )
    | Ast.Lt -> ( < )
    | Ast.Le -> ( <= )
    | Ast.Gt -> ( > )
    | Ast.Ge -> ( >= )
    | _ -> assert false
  in
  (* String (in)equality needs no ordering. *)
  let test_str : string -> string -> bool =
    match op with
    | Ast.Eq -> String.equal
    | Ast.Neq -> fun x y -> not (String.equal x y)
    | _ -> fun x y -> test (String.compare x y) 0
  in
  let app = binop_applier ext op in
  fun ctx rows ~sel ~n ->
    let k = ref 0 in
    for j = 0 to n - 1 do
      let i = sel.(j) in
      let row = rows.(i) in
      let a = ca ctx row and b = cb ctx row in
      let keep =
        match a, b with
        | Value.Int x, Value.Int y -> test x y
        | Value.Str x, Value.Str y -> test_str x y
        | Value.Null, _ | _, Value.Null -> false
        | _, _ -> pred_truth (app ~now:ctx.now a b)
      in
      if keep then begin
        sel.(!k) <- i;
        incr k
      end
    done;
    !k

let element_type = "element"

(* [overlaps] of two elements asks the element type's NOW-free test
   ([Value.vtable.overlaps]), resolved once here: it reads the stored
   periods in place and allocates nothing. It declines ([Not_finite])
   when a NOW-relative endpoint could change the answer; that case and
   non-element operands (period [overlaps] is the strict Allen relation)
   take the cached routine dispatch, row by row. NULL drops the row. *)
let overlaps_kernel ca cb ext : batch_pred =
  let call = routine_caller ext "overlaps" in
  let now_free =
    match Value.lookup_type element_type with
    | Some { Value.overlaps = Some f; _ } -> f
    | Some _ | None -> fun _ _ -> Value.Not_finite
  in
  let routine ctx a b =
    match call ~now:ctx.now [| a; b |] with
    | v -> pred_truth v
    | exception Extension.Resolution_error msg -> eval_error "%s" msg
  in
  fun ctx rows ~sel ~n ->
    let k = ref 0 in
    for j = 0 to n - 1 do
      let i = sel.(j) in
      let row = rows.(i) in
      let a = ca ctx row and b = cb ctx row in
      let keep =
        match a, b with
        | Value.Null, _ | _, Value.Null -> false
        | Value.Ext (ta, _), Value.Ext (tb, _)
          when String.equal ta element_type && String.equal tb element_type -> (
          match now_free a b with
          | Value.Hit -> true
          | Value.Miss -> false
          | Value.Not_finite -> routine ctx a b)
        | _, _ -> routine ctx a b
      in
      if keep then begin
        sel.(!k) <- i;
        incr k
      end
    done;
    !k

(* A string literal [lit] opposite [other] in [overlaps]. The element
   overload is the only one an element and a string reach (no cast
   narrows an element to a period), through the implicit string-to-element
   cast; so once [other] reads an element, the literal is cast there,
   once, and the element serves every later row, which then takes the
   kernel's NOW-free path like the [::Element] spelling. Which way to go
   is settled by [other]'s first non-NULL value, since a column holds
   one type. *)
let literal_element ext lit other : compiled =
  let settled = ref None in
  fun ctx row ->
    match !settled with
    | Some v -> v
    | None -> (
      let v = lit ctx row in
      match other ctx row with
      | Value.Null -> v
      | Value.Ext (t, _) when String.equal t element_type ->
        let e =
          match Extension.find_implicit_cast ext ~from_type:"char" ~to_type:element_type with
          | Some c -> c.Extension.cast_impl ~now:ctx.now v
          | None -> v
        in
        settled := Some e;
        e
      | _ ->
        settled := Some v;
        v)

let rec compile_batch env expr : batch_pred =
  match expr with
  | Ast.Binop (Ast.And, a, b) ->
    let ka = compile_batch env a and kb = compile_batch env b in
    fun ctx rows ~sel ~n ->
      let n = ka ctx rows ~sel ~n in
      kb ctx rows ~sel ~n
  | Ast.Binop (((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b)
    ->
    cmp_kernel op (compile env a) (compile env b) env.ext
  | Ast.Call (name, [ a; b ]) when String.lowercase_ascii name = "overlaps" ->
    let ca = compile env a and cb = compile env b and ext = env.ext in
    (match a, b with
    | Ast.Lit (Ast.L_string _), _ -> overlaps_kernel (literal_element ext ca cb) cb ext
    | _, Ast.Lit (Ast.L_string _) -> overlaps_kernel ca (literal_element ext cb ca) ext
    | _ -> overlaps_kernel ca cb ext)
  | _ -> batch_of_predicate (compile env expr)
