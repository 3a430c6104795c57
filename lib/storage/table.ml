(* A table: schema + heap + indexes, with constraint checking.

   Every mutation goes through here so that indexes and constraints can
   never drift from the heap. Primary keys are enforced through a unique
   B+tree maintained automatically when the schema declares one. *)

exception Constraint_violation of string

let violation fmt = Format.kasprintf (fun s -> raise (Constraint_violation s)) fmt

type index_kind = Ordered | Interval

type index = {
  idx_name : string;
  idx_column : int; (* column position *)
  idx_unique : bool;
  impl : index_impl;
}

and index_impl =
  | Ordered_impl of Btree.t
  | Interval_impl of Interval_index.t

type t = {
  schema : Schema.t;
  heap : Heap.t;
  mutable indexes : index list;
  (* access counters for tip_stat_tables: one bulk atomic add per scan
     entry point, never per row, so parallel workers do not contend *)
  scans : int Atomic.t;
  scan_rows : int Atomic.t;
  writes : int Atomic.t;
  mutable stats : Stats.t option; (* last ANALYZE, None until one runs *)
}

let create schema =
  let t =
    { schema;
      heap = Heap.create ();
      indexes = [];
      scans = Atomic.make 0;
      scan_rows = Atomic.make 0;
      writes = Atomic.make 0;
      stats = None }
  in
  (match Schema.primary_key_index schema with
  | Some i ->
    t.indexes <-
      [ { idx_name = schema.Schema.table_name ^ "_pkey";
          idx_column = i;
          idx_unique = true;
          impl = Ordered_impl (Btree.create ()) } ]
  | None -> ());
  t

let schema t = t.schema
let name t = t.schema.Schema.table_name
let row_count t = Heap.live_count t.heap
let indexes t = t.indexes

(* --- Row validation --------------------------------------------------- *)

let validate_row t row =
  let n = Schema.arity t.schema in
  if Array.length row <> n then
    violation "table %s expects %d values, got %d" (name t) n (Array.length row);
  Array.mapi
    (fun i v ->
      let col = Schema.column t.schema i in
      if col.Schema.not_null && Value.is_null v then
        violation "column %s of %s is NOT NULL" col.Schema.name (name t);
      match Schema.coerce col.Schema.ty v with
      | Some v -> v
      | None ->
        violation "column %s of %s expects %s, got %s (%s)" col.Schema.name
          (name t)
          (Schema.type_name col.Schema.ty)
          (Value.type_name v)
          (Value.to_display_string v))
    row

(* --- Index maintenance ------------------------------------------------ *)

let index_insert idx row rid =
  let v = row.(idx.idx_column) in
  if not (Value.is_null v) then begin
    match idx.impl with
    | Ordered_impl bt ->
      if idx.idx_unique && Btree.find bt v <> [] then
        violation "duplicate key %s for unique index %s"
          (Value.to_display_string v) idx.idx_name;
      Btree.insert bt v rid
    | Interval_impl it ->
      List.iter
        (fun (lo, hi) -> Interval_index.insert it ~lo ~hi rid)
        (Value.extents v)
  end

let index_remove idx row rid =
  let v = row.(idx.idx_column) in
  if not (Value.is_null v) then begin
    match idx.impl with
    | Ordered_impl bt -> ignore (Btree.remove bt v rid)
    | Interval_impl it ->
      List.iter
        (fun (lo, hi) -> ignore (Interval_index.remove it ~lo ~hi rid))
        (Value.extents v)
  end

(* --- Mutations --------------------------------------------------------- *)

let insert t row =
  let row = validate_row t row in
  (* Check unique indexes before touching anything, so a violation leaves
     the table unchanged. *)
  List.iter
    (fun idx ->
      match idx.impl with
      | Ordered_impl bt ->
        let v = row.(idx.idx_column) in
        if idx.idx_unique && (not (Value.is_null v)) && Btree.find bt v <> []
        then
          violation "duplicate key %s for unique index %s"
            (Value.to_display_string v) idx.idx_name
      | Interval_impl _ -> ())
    t.indexes;
  let rid = Heap.insert t.heap row in
  List.iter (fun idx -> index_insert idx row rid) t.indexes;
  ignore (Atomic.fetch_and_add t.writes 1);
  rid

let delete t rid =
  match Heap.get t.heap rid with
  | None -> false
  | Some row ->
    List.iter (fun idx -> index_remove idx row rid) t.indexes;
    ignore (Heap.delete t.heap rid);
    ignore (Atomic.fetch_and_add t.writes 1);
    true

let update t rid row =
  match Heap.get t.heap rid with
  | None -> false
  | Some old_row ->
    let row = validate_row t row in
    (* An index whose key keeps its slot keeps its entry, so updating
       other columns copies no B-tree path: for a B-tree an equal key
       (its own order, the same on a primary and a WAL replay), for an
       interval index the very same value. *)
    let moved =
      List.filter
        (fun idx ->
          let v = row.(idx.idx_column) and old_v = old_row.(idx.idx_column) in
          match idx.impl with
          | Ordered_impl _ -> Value.compare v old_v <> 0
          | Interval_impl _ -> v != old_v)
        t.indexes
    in
    List.iter (fun idx -> index_remove idx old_row rid) moved;
    (match List.iter (fun idx -> index_insert idx row rid) moved with
    | () -> ignore (Heap.update t.heap rid row)
    | exception e ->
      (* Restore the old index entries before re-raising. *)
      List.iter (fun idx -> index_remove idx row rid) moved;
      List.iter (fun idx -> index_insert idx old_row rid) moved;
      raise e);
    ignore (Atomic.fetch_and_add t.writes 1);
    true

let get t rid = Heap.get t.heap rid
let get_exn t rid = Heap.get_exn t.heap rid

(* Scan entry points charge the access counters in bulk: one scan, plus
   the live rows it will visit. *)
let charge_scan t =
  ignore (Atomic.fetch_and_add t.scans 1);
  ignore (Atomic.fetch_and_add t.scan_rows (Heap.live_count t.heap))

let rids t =
  charge_scan t;
  Heap.rids t.heap

type scan = Slots of int | Rids of int array

(* A heap without tombstones is dense: its first [n] slots are its rows,
   so the scan needs no rid array. *)
let scan t =
  charge_scan t;
  let n = Heap.slot_count t.heap in
  if Heap.live_count t.heap = n then Slots n else Rids (Heap.rids_array t.heap)

let fill t ~lo ~hi dst = Heap.fill t.heap ~lo ~hi dst

let iteri f t =
  charge_scan t;
  Heap.iteri f t.heap

let fold f init t =
  charge_scan t;
  Heap.fold f init t.heap

let scan_count t = Atomic.get t.scans
let scan_row_count t = Atomic.get t.scan_rows
let write_count t = Atomic.get t.writes

(* --- Optimizer statistics (ANALYZE) ----------------------------------- *)

let stats t = t.stats
(* One pass over the heap: for every column whose values expose temporal
   extents, gather (start, length) per finite period and count the
   NOW-relative ones. Columns that never produced an extent get no
   col_stats — the planner then knows nothing about them. *)
let analyze ?(buckets = 32) ~analyzed_at t =
  let n = Schema.arity t.schema in
  let pairs = Array.make n [] in
  let nonnull = Array.make n 0 in
  let unbounded = Array.make n 0 in
  let rows = ref 0 in
  charge_scan t;
  Heap.iteri
    (fun _rid row ->
      incr rows;
      for i = 0 to n - 1 do
        match Value.extents row.(i) with
        | [] -> ()
        | extents ->
          nonnull.(i) <- nonnull.(i) + 1;
          List.iter
            (fun (lo, hi) ->
              if lo = min_int || hi = max_int then
                unbounded.(i) <- unbounded.(i) + 1
              else pairs.(i) <- (lo, hi - lo) :: pairs.(i))
            extents
      done)
    t.heap;
  let cols = ref [] in
  for i = n - 1 downto 0 do
    if pairs.(i) <> [] || unbounded.(i) > 0 then
      cols :=
        Stats.build_col_stats ~column:i ~buckets ~nonnull:nonnull.(i)
          ~unbounded:unbounded.(i) pairs.(i)
        :: !cols
  done;
  let s =
    { Stats.st_rows = !rows;
      st_buckets = buckets;
      st_analyzed_at = analyzed_at;
      st_cols = !cols }
  in
  t.stats <- Some s;
  s

(* --- Secondary indexes -------------------------------------------------- *)

let find_index t idx_name =
  List.find_opt (fun i -> String.equal i.idx_name idx_name) t.indexes

let index_on_column t ~kind column =
  List.find_opt
    (fun i ->
      i.idx_column = column
      &&
      match i.impl, kind with
      | Ordered_impl _, Ordered -> true
      | Interval_impl _, Interval -> true
      | Ordered_impl _, Interval | Interval_impl _, Ordered -> false)
    t.indexes

let create_index t ~idx_name ~column ~unique ~kind =
  if find_index t idx_name <> None then
    violation "index %s already exists" idx_name;
  let col_pos = Schema.column_index_exn t.schema column in
  let impl =
    match kind with
    | Ordered -> Ordered_impl (Btree.create ())
    | Interval -> Interval_impl (Interval_index.create ())
  in
  let idx = { idx_name; idx_column = col_pos; idx_unique = unique; impl } in
  (* Backfill from existing rows; unique violations abort cleanly. *)
  (match Heap.iteri (fun rid row -> index_insert idx row rid) t.heap with
  | () -> ()
  | exception e -> raise e);
  t.indexes <- t.indexes @ [ idx ];
  idx

let drop_index t idx_name =
  let before = List.length t.indexes in
  t.indexes <- List.filter (fun i -> not (String.equal i.idx_name idx_name)) t.indexes;
  List.length t.indexes < before
