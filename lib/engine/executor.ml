(* Pull execution: a plan runs as a lazy row sequence.

   Each operator has one implementation. Leaf scans are rid sources;
   Filter, Project and the Hash_join probe are fused chunk stages above
   a scan or above the row stream of any other operator ([pipeline]),
   and one lazy chunk sequence ([chunks]) serves both [run] and
   [run_aggregate]. Joins materialize their build side only; aggregation
   and sorting are blocking, as they must be. A statement runs on its
   session's domain: sessions, not operators, are the unit of
   parallelism. *)

open Tip_storage
module Ast = Tip_sql.Ast
module Metrics = Tip_obs.Metrics
module Deadline = Tip_core.Deadline

exception Exec_error of string

(* Registry handles, created once at module init. Scan counts are added
   in bulk (once per scan), never per row, to keep the
   instrumented hot path within the <3% overhead budget. *)
let m_rows_scanned =
  Metrics.counter "exec_rows_scanned_total"
    ~help:"Rows examined by leaf scans"

let m_rows_joined =
  Metrics.counter "exec_rows_joined_total"
    ~help:"Rows emitted by hash-join probes"

let m_rows_coalesced =
  Metrics.counter "exec_rows_coalesced_total"
    ~help:"Rows folded into user-registered aggregates (e.g. group_union)"

let m_agg_rows =
  Metrics.counter "exec_agg_rows_total"
    ~help:"Rows consumed by aggregation"

let m_queries =
  Metrics.counter "exec_queries_total"
    ~help:"Plans executed through collect"

(* Hash table keyed by a list of values (group keys / join keys). *)
module Row_key = struct
  type t = Value.t list

  (* One traversal, no length precomputation. *)
  let equal a b =
    let rec go a b =
      match a, b with
      | [], [] -> true
      | x :: a, y :: b -> Value.equal x y && go a b
      | [], _ :: _ | _ :: _, [] -> false
    in
    go a b

  let hash vs = List.fold_left (fun h v -> (h * 31) + Value.hash v) 17 vs
end

module Key_table = Hashtbl.Make (Row_key)

(* Hash table keyed by a whole row, without going through a list (used
   by DISTINCT, where every input row becomes a key). Equality matches
   [Row_key]: element-wise [Value.equal]. *)
module Row_array_key = struct
  type t = Value.t array

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec go i = i >= Array.length a || (Value.equal a.(i) b.(i) && go (i + 1)) in
    go 0

  let hash row = Array.fold_left (fun h v -> (h * 31) + Value.hash v) 17 row
end

module Row_table = Hashtbl.Make (Row_array_key)

(* Hash table keyed by a single value, for the one-key hash-join fast
   path: probing with the value itself avoids allocating a one-element
   key list per probe row. *)
module Val_key = struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end

module Val_table = Hashtbl.Make (Val_key)

(* --- Grouped aggregation ---------------------------------------------------- *)

(* Each group has a dense id (gid), and each aggregate keeps the state
   of every group in gid-indexed columns: a built-in aggregate in the
   columns below, a blade's behind {!Extension.grouped}. A column grows
   on demand, since a group whose inputs are all NULL is never
   stepped. *)

let numeric_add a b =
  match a, b with
  | Value.Int x, Value.Int y -> Value.Int (x + y)
  | (Value.Int _ | Value.Float _), (Value.Int _ | Value.Float _) ->
    Value.Float (Value.to_float a +. Value.to_float b)
  | _, _ ->
    raise (Exec_error (Printf.sprintf "SUM/AVG over non-numeric %s"
                         (Value.type_name b)))

(* [Extension.reserve], with the common case (room already) inline. *)
let[@inline] reserve col gid fill =
  if gid >= Array.length !col then Extension.reserve col gid fill

(* Slot [gid] of a column, or [default] past its end. *)
let read col gid default = if gid < Array.length !col then !col.(gid) else default

type builtin =
  | Count of int array ref
  | Sum of Value.t array ref
  | Avg of Value.t array ref * int array ref (* sums, counts *)
  | Extremum of Value.t array ref * bool (* MIN when true, MAX when false *)

type agg = Builtin of builtin | User of Extension.grouped

let agg_state ctx (spec : Plan.agg_spec) =
  match spec.impl with
  | Plan.Agg_count_star | Plan.Agg_count -> Builtin (Count (ref [||]))
  | Plan.Agg_sum -> Builtin (Sum (ref [||]))
  | Plan.Agg_avg -> Builtin (Avg (ref [||], ref [||]))
  | Plan.Agg_min -> Builtin (Extremum (ref [||], true))
  | Plan.Agg_max -> Builtin (Extremum (ref [||], false))
  | Plan.Agg_user (agg, _) -> User (agg.Extension.create ~now:ctx.Expr_eval.now)

let[@inline] incr_at col gid =
  reserve col gid 0;
  let a = !col in
  a.(gid) <- a.(gid) + 1

(* Folds [v] into a value column: NULL is the empty state, and MIN/MAX
   keep the first of equal values. *)
let[@inline] sum_at col gid v =
  reserve col gid Value.Null;
  let a = !col in
  let cur = a.(gid) in
  a.(gid) <- (if Value.is_null cur then v else numeric_add cur v)

let[@inline] keep_at col gid v ~smaller =
  reserve col gid Value.Null;
  let a = !col in
  let cur = a.(gid) in
  if Value.is_null cur then a.(gid) <- v
  else begin
    let c = Value.compare v cur in
    if (smaller && c < 0) || ((not smaller) && c > 0) then a.(gid) <- v
  end

let[@inline] step_builtin b gid v =
  match b with
  | Count n -> incr_at n gid
  | Sum acc -> sum_at acc gid v
  | Avg (acc, n) ->
    sum_at acc gid v;
    incr_at n gid
  | Extremum (acc, smaller) -> keep_at acc gid v ~smaller

let final agg gid =
  match agg with
  | Builtin (Count n) -> Value.Int (read n gid 0)
  | Builtin (Sum acc | Extremum (acc, _)) -> read acc gid Value.Null
  | Builtin (Avg (acc, n)) -> (
    match read n gid 0 with
    | 0 -> Value.Null
    | k -> Value.Float (Value.to_float (read acc gid Value.Null) /. float_of_int k))
  | User g -> g.final gid

(* How a row steps one aggregate: COUNT( * ) counts every row; any other
   evaluates its argument and skips NULL, and DISTINCT also skips a
   value its group has seen (one seen-set per group). [counted] tallies
   the steps of blade aggregates for [exec_rows_coalesced_total]. *)
let stepper ctx (spec : Plan.agg_spec) agg counted : int -> Value.t array -> unit =
  match spec.arg, agg with
  | None, Builtin b -> fun gid _ -> step_builtin b gid Value.Null
  | None, User _ -> invalid_arg "Executor.stepper: a blade aggregate with no argument"
  | Some arg, Builtin b when not spec.distinct ->
    (* the common case, with the built-in step inline *)
    fun gid row ->
      let v = arg ctx row in
      if not (Value.is_null v) then step_builtin b gid v
  | Some arg, _ ->
    let step =
      match agg with
      | Builtin b -> step_builtin b
      | User g ->
        fun gid v ->
          incr counted;
          g.step gid v
    in
    if not spec.distinct then (fun gid row ->
      let v = arg ctx row in
      if not (Value.is_null v) then step gid v)
    else begin
      let seen = ref [||] in
      fun gid row ->
        let v = arg ctx row in
        if not (Value.is_null v) then begin
          reserve seen gid None;
          let set =
            match !seen.(gid) with
            | Some set -> set
            | None ->
              let set = Val_table.create 16 in
              !seen.(gid) <- Some set;
              set
          in
          if not (Val_table.mem set v) then begin
            Val_table.replace set v ();
            step gid v
          end
        end
    end

(* The group table of a hash aggregate: [gid row] is the dense id of
   [row]'s group, numbered in first-appearance order, and [key gid i]
   its [i]-th key value. A grand aggregate is gid 0, with no table; the
   common single-key GROUP BY hashes the key value itself, and only
   multi-key grouping pays a key list per row. [count ()] is the number
   of groups so far. *)
type group_table = {
  gid : Value.t array -> int;
  count : unit -> int;
  key : int -> int -> Value.t;
}

let group_table ctx keys =
  let n = ref 0 and cols = Array.of_list (List.map (fun _ -> ref [||]) keys) in
  let add key_at =
    let g = !n in
    incr n;
    Array.iteri
      (fun i col ->
        reserve col g Value.Null;
        !col.(g) <- key_at i)
      cols;
    g
  in
  let gid =
    match keys with
    | [] ->
      n := 1;
      fun _ -> 0
    | [ ck ] ->
      let groups : int Val_table.t = Val_table.create 64 in
      fun row ->
        let key = ck ctx row in
        (match Val_table.find groups key with
        | g -> g
        | exception Not_found ->
          let g = add (fun _ -> key) in
          Val_table.replace groups key g;
          g)
    | _ ->
      let groups : int Key_table.t = Key_table.create 64 in
      fun row ->
        let key = List.map (fun c -> c ctx row) keys in
        (match Key_table.find groups key with
        | g -> g
        | exception Not_found ->
          let g = add (List.nth key) in
          Key_table.replace groups key g;
          g)
  in
  { gid; count = (fun () -> !n); key = (fun g i -> !(cols.(i)).(g)) }

(* ORDER BY comparison over pre-evaluated keys: the keys of one row are
   [ka.(oa) .. ka.(oa + w - 1)], one per [by] entry. *)
let rec compare_sort_keys_from by ka oa kb ob k =
  if k = Array.length by then 0
  else begin
    let c = Value.compare ka.(oa + k) kb.(ob + k) in
    let c = match snd by.(k) with Ast.Asc -> c | Ast.Desc -> -c in
    if c <> 0 then c else compare_sort_keys_from by ka oa kb ob (k + 1)
  end

let compare_sort_keys by ka oa kb ob = compare_sort_keys_from by ka oa kb ob 0

(* Bounded top-k for ORDER BY ... LIMIT: keeps the k first rows of the
   stable sort without materializing the input, using a max-heap of at
   most k rows ordered by (sort keys, arrival index) — arrival index
   makes the order total, so the result is exactly the stable sort's
   prefix. The heap grows with the rows seen, so a LIMIT far above the
   input's size costs only the input. *)
let top_k ctx by k input : Value.t array list =
  if k <= 0 then []
  else begin
    let by = Array.of_list by in
    let cmp_elt (ka, ia, _) (kb, ib, _) =
      let c = compare_sort_keys by ka 0 kb 0 in
      if c <> 0 then c else Int.compare ia ib
    in
    let heap = ref [||] in
    let size = ref 0 in
    let elt i = !heap.(i) in
    let swap i j =
      let tmp = elt i in
      !heap.(i) <- elt j;
      !heap.(j) <- tmp
    in
    let rec sift_up i =
      if i > 0 then begin
        let p = (i - 1) / 2 in
        if cmp_elt (elt p) (elt i) < 0 then begin
          swap p i;
          sift_up p
        end
      end
    in
    let rec sift_down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let largest = ref i in
      if l < !size && cmp_elt (elt l) (elt !largest) > 0 then largest := l;
      if r < !size && cmp_elt (elt r) (elt !largest) > 0 then largest := r;
      if !largest <> i then begin
        swap i !largest;
        sift_down !largest
      end
    in
    let arrival = ref 0 in
    Seq.iter
      (fun row ->
        let key = Array.map (fun (c, _) -> c ctx row) by in
        let e = (key, !arrival, row) in
        incr arrival;
        if !size < k then begin
          if !size = Array.length !heap then begin
            let grown = Array.make (Stdlib.min k (Stdlib.max 16 (2 * !size))) e in
            Array.blit !heap 0 grown 0 !size;
            heap := grown
          end;
          !heap.(!size) <- e;
          incr size;
          sift_up (!size - 1)
        end
        else if cmp_elt e (elt 0) < 0 then begin
          !heap.(0) <- e;
          sift_down 0
        end)
      input;
    let kept = Array.sub !heap 0 !size in
    Array.sort cmp_elt kept;
    Array.to_list (Array.map (fun (_, _, row) -> row) kept)
  end

(* --- Execution -------------------------------------------------------------- *)

(* EXPLAIN ANALYZE support: wrap a child sequence so that every pull
   (including the first, which performs any eager work of the operator
   body) accrues wall time into [stats.actual_ns] and every produced row
   bumps [stats.actual_rows]. Timings are inclusive of children, like
   the usual EXPLAIN ANALYZE convention. *)
let instrumented_seq (stats : Plan.op_stats) (produce : unit -> Value.t array Seq.t) :
    Value.t array Seq.t =
  let rec wrap force () =
    let t0 = Deadline.now_ns () in
    let node = force () in
    stats.Plan.actual_ns <- stats.Plan.actual_ns + (Deadline.now_ns () - t0);
    match node with
    | Seq.Nil -> Seq.Nil
    | Seq.Cons (row, rest) ->
      stats.Plan.actual_rows <- stats.Plan.actual_rows + 1;
      Seq.Cons (row, wrap rest)
  in
  wrap (fun () -> (produce ()) ())

(* The rids an interval scan visits, ascending. Multi-period values have
   one index entry per period, so a row can match the probe window
   several times: dedupe. When the window matches more than half the
   table the index only adds overhead, and the recheck filter above
   makes a plain scan equivalent, so degrade to one. *)
let interval_rids table index ~lo ~hi =
  let rids = Interval_index.query_overlaps index ~lo ~hi in
  if List.length rids > Table.row_count table / 2 then Table.scan table
  else Table.Rids (Array.of_list (List.sort_uniq Int.compare rids))

(* The table and rids a leaf scan reads. The rid set is fixed when the
   scan starts, so concurrent mutation cannot skew it. An index scan's
   rids come back in key order — the planner relies on this to satisfy
   ORDER BY from an index. *)
let leaf_rids = function
  | Plan.Seq_scan { table; _ } -> (table, Table.scan table)
  | Plan.Index_scan { table; btree; lo; hi; _ } ->
    (table, Table.Rids (Array.of_list (Btree.range btree ~lo ~hi)))
  | Plan.Interval_scan { table; index; lo; hi; _ } ->
    (table, interval_rids table index ~lo ~hi)
  | _ -> invalid_arg "Executor.leaf_rids: not a leaf scan"

(* --- Chunks ------------------------------------------------------------------ *)

(* Chunks of row references with a selection vector: the source fills
   [rows] and resets [sel] to identity, filters compact [sel] in place
   via fused kernels ({!Expr_eval.batch_pred}), and projections and join
   probes write fresh rows into stage-owned output chunks. Buffers are
   reused across chunks — safe because emitted rows are heap-row
   references or freshly allocated operator outputs, never the chunk
   buffer itself. *)
let chunk_size = 1024

type chunk = {
  mutable rows : Value.t array array; (* row buffer *)
  mutable sel : int array; (* selection vector; first [nsel] valid *)
  mutable nsel : int;
}

let make_chunk n = { rows = Array.make n [||]; sel = Array.make n 0; nsel = 0 }

(* Grow [rows]/[sel] to hold at least [n] entries (join fan-out can
   exceed the source chunk). *)
let ensure_capacity c n =
  if Array.length c.rows < n then begin
    let rows = Array.make (Stdlib.max n (2 * Array.length c.rows)) [||] in
    Array.blit c.rows 0 rows 0 (Array.length c.rows);
    c.rows <- rows
  end;
  if Array.length c.sel < n then begin
    let sel = Array.make (Stdlib.max n (2 * Array.length c.sel)) 0 in
    Array.blit c.sel 0 sel 0 (Array.length c.sel);
    c.sel <- sel
  end

(* Fill [c] with the live rows of rids[lo, lo+len) and reset the
   selection vector to identity. *)
let fill_chunk table (scan : Table.scan) lo len c =
  let n = ref 0 in
  for i = lo to lo + len - 1 do
    let rid = match scan with Table.Slots _ -> i | Table.Rids rids -> rids.(i) in
    match Table.get table rid with
    | Some row ->
      c.rows.(!n) <- row;
      c.sel.(!n) <- !n;
      incr n
    | None -> ()
  done;
  c.nsel <- !n

(* Fill [c] with up to [cap] rows pulled from [rows]; returns the rest
   of the stream. *)
let fill_chunk_from c cap rows =
  let rec go n rows =
    if n = cap then (n, rows)
    else
      match rows () with
      | Seq.Nil -> (n, Seq.empty)
      | Seq.Cons (row, rest) ->
        ensure_capacity c (n + 1);
        c.rows.(n) <- row;
        c.sel.(n) <- n;
        go (n + 1) rest
  in
  let n, rest = go 0 rows in
  c.nsel <- n;
  rest

(* A pipeline's source: the rids of a leaf scan, read from its table, or
   the row stream of any other operator. *)
type source = Rids of Table.t * Table.scan | Rows of Value.t array Seq.t

(* A pipeline: its source, and the fused stages above it as one
   function. Stages own reusable output chunks, so a compiled pipeline
   serves one driver. *)
type pipeline = source * (chunk -> chunk)

(* Rows per chunk for a source of [n] rows. Armed failpoints shrink it
   to one row, so the per-chunk poll lands at every row boundary, as the
   governance fuzz requires. *)
let chunk_rows n = if Failpoint.active () then 1 else Stdlib.min chunk_size n

(* The chunk driver: the pipeline's output chunks as a lazy sequence,
   polling the token once per chunk. A leaf scan is charged to the scan
   metric and budget once, in bulk. Every chunk shares the stage's
   buffers, so each must be consumed before the next is forced. *)
let chunks ctx ((src, stage) : pipeline) : chunk Seq.t =
  match src with
  | Rids (table, rids) ->
    let n = match rids with Table.Slots n -> n | Table.Rids rids -> Array.length rids in
    Metrics.add m_rows_scanned n;
    Deadline.charge_rows_scanned ctx.Expr_eval.token n;
    let cap = chunk_rows n in
    let c = make_chunk cap in
    let rec next lo () =
      if lo >= n then Seq.Nil
      else begin
        Expr_eval.poll ctx;
        let len = Stdlib.min cap (n - lo) in
        fill_chunk table rids lo len c;
        Seq.Cons (stage c, next (lo + len))
      end
    in
    next 0
  | Rows rows ->
    (* A stream's length is unknown: the buffers grow as rows arrive. *)
    let cap = chunk_rows chunk_size in
    let c = make_chunk 0 in
    let rec next rows () =
      Expr_eval.poll ctx;
      let rest = fill_chunk_from c cap rows in
      if c.nsel = 0 then Seq.Nil else Seq.Cons (stage c, next rest)
    in
    next rows

(* Chunks back to rows: each chunk's survivors are copied out before the
   next chunk reuses the buffers, and laziness across chunks keeps
   LIMIT's early exit at chunk granularity. *)
let rows_of_chunks chunks =
  Seq.flat_map
    (fun c ->
      let selected = ref [] in
      for j = c.nsel - 1 downto 0 do
        selected := c.rows.(c.sel.(j)) :: !selected
      done;
      List.to_seq !selected)
    chunks

let then_stage ((src, stage) : pipeline) next : pipeline =
  (src, fun c -> next (stage c))

let filter_stage ctx (kernel : Expr_eval.batch_pred) c =
  c.nsel <- kernel ctx c.rows ~sel:c.sel ~n:c.nsel;
  c

let project_stage ctx exprs =
  let out = make_chunk 0 in
  fun c ->
    let n = c.nsel in
    ensure_capacity out n;
    for j = 0 to n - 1 do
      let row = c.rows.(c.sel.(j)) in
      out.rows.(j) <- Array.map (fun e -> e ctx row) exprs;
      out.sel.(j) <- j
    done;
    out.nsel <- n;
    out

(* Probes each selected row against the build side; output rows are
   always left-columns ++ right-columns, emitted probe-major. *)
let join_stage probe ~build_left =
  let out = make_chunk 0 in
  fun c ->
    let k = ref 0 in
    for j = 0 to c.nsel - 1 do
      let prow = c.rows.(c.sel.(j)) in
      let matches = probe prow in
      let m = Array.length matches in
      if m > 0 then begin
        Metrics.add m_rows_joined m;
        ensure_capacity out (!k + m);
        for x = 0 to m - 1 do
          out.rows.(!k) <-
            (if build_left then Array.append matches.(x) prow
             else Array.append prow matches.(x));
          out.sel.(!k) <- !k;
          incr k
        done
      end
    done;
    out.nsel <- !k;
    out

(* Saturating [n + offset]: the rows a LIMIT needs from its input. *)
let limit_rows n offset =
  match offset with
  | Some o when o > 0 -> if n > max_int - o then max_int else n + o
  | _ -> n

let rec run ctx (plan : Plan.t) : Value.t array Seq.t =
  match plan with
  | Plan.Seq_scan _ | Plan.Index_scan _ | Plan.Interval_scan _ | Plan.Filter _
  | Plan.Project _ | Plan.Hash_join _ ->
    rows_of_chunks (chunks ctx (pipeline ctx plan))
  | Plan.One_row -> Seq.return [||]
  | Plan.Virtual_scan { produce; _ } ->
    (* Providers materialize a snapshot; charge it like a scan so
       governance budgets and metrics see virtual rows too. *)
    let rows = produce () in
    let n = List.length rows in
    Metrics.add m_rows_scanned n;
    Deadline.charge_rows_scanned ctx.Expr_eval.token n;
    Seq.map
      (fun row ->
        Expr_eval.tick ctx;
        row)
      (List.to_seq rows)
  | Plan.Instrument { input; stats } ->
    instrumented_seq stats (fun () -> run ctx input)
  | Plan.Nested_loop { left; right } ->
    let right_rows = List.of_seq (run ctx right) in
    (* Output cardinality is |left|·|right| — far beyond what the leaf
       scans charged — so tick per emitted row: a cross join over tiny
       inputs is exactly the runaway the governor must catch. *)
    Seq.concat_map
      (fun lrow ->
        Seq.map
          (fun rrow ->
            Expr_eval.tick ctx;
            Array.append lrow rrow)
          (List.to_seq right_rows))
      (run ctx left)
  | Plan.Left_outer_join { left; right; on; right_width; _ } ->
    let right_rows = List.of_seq (run ctx right) in
    let nulls = Array.make right_width Value.Null in
    Seq.concat_map
      (fun lrow ->
        Expr_eval.tick ctx;
        let matches =
          List.filter
            (fun rrow -> Expr_eval.to_predicate on ctx (Array.append lrow rrow))
            right_rows
        in
        match matches with
        | [] -> Seq.return (Array.append lrow nulls)
        | _ -> Seq.map (fun rrow -> Array.append lrow rrow) (List.to_seq matches))
      (run ctx left)
  | Plan.Aggregate { input; keys; aggs; _ } -> run_aggregate ctx input keys aggs
  | Plan.Sort { input; by; _ } ->
    let rows = Array.of_seq (run ctx input) in
    (* decorate-sort-undecorate: the keys are evaluated once per row,
       into one flat array, and a stable sort orders row indices *)
    let by = Array.of_list by in
    let w = Array.length by in
    let keys = Array.make (Array.length rows * w) Value.Null in
    Array.iteri
      (fun i row ->
        for k = 0 to w - 1 do
          keys.((i * w) + k) <- fst by.(k) ctx row
        done)
      rows;
    let order = Array.init (Array.length rows) Fun.id in
    Array.stable_sort (fun i j -> compare_sort_keys by keys (i * w) keys (j * w)) order;
    Seq.map (fun i -> rows.(i)) (Array.to_seq order)
  | Plan.Distinct input ->
    let seen = Row_table.create 64 in
    Seq.filter
      (fun row ->
        if Row_table.mem seen row then false
        else begin
          Row_table.replace seen row ();
          true
        end)
      (run ctx input)
  | Plan.Append inputs ->
    List.fold_left
      (fun acc input -> Seq.append acc (run ctx input))
      Seq.empty inputs
  | Plan.Partition_scan { children; _ } ->
    (* Partition-wise consumption: each surviving child is its own
       pipeline, exactly as an unpartitioned scan would be. *)
    List.fold_left
      (fun acc child -> Seq.append acc (run ctx child))
      Seq.empty children
  | Plan.Limit { input; limit; offset } ->
    let s =
      match limit with
      | Some n -> (
        match run_topk ctx input (limit_rows n offset) with
        | Some s -> s
        | None -> run ctx input)
      | None -> run ctx input
    in
    let s = match offset with Some n -> Seq.drop n s | None -> s in
    (match limit with Some n -> Seq.take n s | None -> s)

(* Compile [plan] into a pipeline. Leaf scans are rid sources; Filter,
   Project and the Hash_join probe fuse as stages above their input's
   pipeline; any other operator is the row-stream source of the
   pipeline above it. *)
and pipeline ctx (plan : Plan.t) : pipeline =
  match plan with
  | Plan.Seq_scan _ | Plan.Index_scan _ | Plan.Interval_scan _ ->
    let table, rids = leaf_rids plan in
    (Rids (table, rids), Fun.id)
  | Plan.Filter { input; bpred; _ } ->
    then_stage (pipeline ctx input) (filter_stage ctx bpred)
  | Plan.Project { input; exprs; _ } ->
    then_stage (pipeline ctx input) (project_stage ctx exprs)
  | Plan.Hash_join { left; right; left_keys; right_keys; build_left; _ } ->
    (* Build on the cost-chosen side first, then probe from the other.
       The emission order is probe-major, so it depends on [build_left]:
       a plan property. *)
    let build_plan, probe_plan, build_keys, probe_keys =
      if build_left then (left, right, left_keys, right_keys)
      else (right, left, right_keys, left_keys)
    in
    let probe = build_join_table ctx build_plan build_keys probe_keys in
    then_stage (pipeline ctx probe_plan) (join_stage probe ~build_left)
  | Plan.Instrument
      { input =
          ( Plan.Seq_scan _ | Plan.Index_scan _ | Plan.Interval_scan _
          | Plan.Filter _ | Plan.Project _ | Plan.Hash_join _ ) as input;
        stats } ->
    (* Fused stages have no per-operator boundaries to time: each counts
       the rows that flow through it, and wall time goes to the
       Instrument above the pipeline. *)
    then_stage (pipeline ctx input) (fun c ->
        stats.Plan.actual_rows <- stats.Plan.actual_rows + c.nsel;
        c)
  | Plan.Instrument _ | Plan.Nested_loop _ | Plan.Left_outer_join _
  | Plan.Aggregate _ | Plan.Sort _ | Plan.Distinct _ | Plan.Limit _
  | Plan.Append _ | Plan.Partition_scan _ | Plan.One_row
  | Plan.Virtual_scan _ ->
    (Rows (run ctx plan), Fun.id)

and run_aggregate ctx input keys aggs =
  let table = group_table ctx keys in
  let states = Array.of_list (List.map (agg_state ctx) aggs) in
  let counted = ref 0 in
  let steppers =
    Array.of_list (List.mapi (fun i spec -> stepper ctx spec states.(i) counted) aggs)
  in
  let naggs = Array.length steppers and grand = List.is_empty keys in
  let input_rows = ref 0 in
  (* Chunks feed the group table directly, with no row sequence in
     between. A partitioned input feeds it child by child, so a
     partitioned aggregate costs the same per row as the unpartitioned
     one. *)
  let rec consume plan =
    match plan with
    | Plan.Partition_scan { children; _ } -> List.iter consume children
    | _ ->
      Seq.iter
        (fun c ->
          for j = 0 to c.nsel - 1 do
            let row = c.rows.(c.sel.(j)) in
            let gid = if grand then 0 else table.gid row in
            for a = 0 to naggs - 1 do
              steppers.(a) gid row
            done
          done;
          input_rows := !input_rows + c.nsel)
        (chunks ctx (pipeline ctx plan))
  in
  consume input;
  Metrics.add m_agg_rows !input_rows;
  (* The coalesce counter is flushed once, rather than paying an atomic
     per input row. *)
  Metrics.add m_rows_coalesced !counted;
  (* A group's output row: its keys, then each aggregate's final value.
     A grand aggregate is one row even over an empty input. *)
  let nkeys = List.length keys in
  Seq.init (table.count ()) (fun g ->
      let row = Array.make (nkeys + naggs) Value.Null in
      for i = 0 to nkeys - 1 do
        row.(i) <- table.key g i
      done;
      for a = 0 to naggs - 1 do
        row.(nkeys + a) <- final states.(a) g
      done;
      row)

(* LIMIT directly above a Sort — possibly through Projects — needs only
   the first [k] sorted rows, so a bounded heap replaces the full
   materialize-and-sort. *)
and run_topk ctx plan k : Value.t array Seq.t option =
  match plan with
  | Plan.Instrument { input; stats } ->
    Option.map
      (fun s -> instrumented_seq stats (fun () -> s))
      (run_topk ctx input k)
  | Plan.Project { input; exprs; _ } ->
    Option.map
      (fun s -> rows_of_chunks (chunks ctx (Rows s, project_stage ctx exprs)))
      (run_topk ctx input k)
  | Plan.Sort { input; by; _ } -> Some (List.to_seq (top_k ctx by k (run ctx input)))
  | _ -> None

(* Materialize a hash-join build side into a probe function returning
   matches in build-scan order. Single-key joins hash the value itself
   (no per-row key list); NULL keys never join. *)
and build_join_table ctx build_plan build_keys probe_keys :
    Value.t array -> Value.t array array =
  match build_keys, probe_keys with
  | [ bk ], [ pk ] ->
    let tmp : Value.t array list Val_table.t = Val_table.create 64 in
    Seq.iter
      (fun brow ->
        let key = bk ctx brow in
        if not (Value.is_null key) then
          Val_table.replace tmp key
            (brow :: Option.value (Val_table.find_opt tmp key) ~default:[]))
      (run ctx build_plan);
    let table = Val_table.create (Stdlib.max 16 (Val_table.length tmp)) in
    Val_table.iter
      (fun key rows ->
        Val_table.replace table key (Array.of_list (List.rev rows)))
      tmp;
    fun prow ->
      let key = pk ctx prow in
      if Value.is_null key then [||]
      else begin
        match Val_table.find_opt table key with
        | Some rows -> rows
        | None -> [||]
      end
  | _ ->
    let tmp : Value.t array list Key_table.t = Key_table.create 64 in
    Seq.iter
      (fun brow ->
        let key = List.map (fun c -> c ctx brow) build_keys in
        if not (List.exists Value.is_null key) then
          Key_table.replace tmp key
            (brow :: Option.value (Key_table.find_opt tmp key) ~default:[]))
      (run ctx build_plan);
    let table = Key_table.create (Stdlib.max 16 (Key_table.length tmp)) in
    Key_table.iter
      (fun key rows ->
        Key_table.replace table key (Array.of_list (List.rev rows)))
      tmp;
    fun prow ->
      let key = List.map (fun c -> c ctx prow) probe_keys in
      if List.exists Value.is_null key then [||]
      else begin
        match Key_table.find_opt table key with
        | Some rows -> rows
        | None -> [||]
      end

(* The client-facing collection: counts the query and charges result-set
   budgets (subqueries consume [run] directly: their rows are
   intermediate work, already bounded by the scan budget). The memory
   estimate walks the row's object graph, so it is computed only when a
   memory budget is actually armed. *)
let collect ctx plan =
  Metrics.incr m_queries;
  let rows = run ctx plan in
  let token = ctx.Expr_eval.token in
  if not (Deadline.has_budget token) then List.of_seq rows
  else
    List.of_seq
      (Seq.map
         (fun row ->
           let bytes =
             if Deadline.tracks_mem token then
               Obj.reachable_words (Obj.repr row) * (Sys.word_size / 8)
             else 0
           in
           Deadline.charge_result token ~rows:1 ~bytes;
           row)
         rows)
