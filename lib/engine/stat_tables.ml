(* DESIGN.md §11. tip_stat_activity lives in the server, which owns the
   session table. *)

open Tip_storage
module Metrics = Tip_obs.Metrics
module Introspect = Tip_obs.Introspect
module Span = Tip_obs.Span

let ms ns = Value.Float (float_of_int ns /. 1e6)

(* Typed temporal values for the observability vtabs (the server's
   tip_stat_activity included): the engine cannot depend on the blade,
   so it renders the text form and parses it through the registered
   type vtable, degrading gracefully when the blade is not installed. *)
let typed_value type_name text fallback =
  match Value.lookup_type type_name with
  | Some vt -> (
    try vt.Value.parse text with Value.Type_error _ -> fallback)
  | None -> fallback

let instant_value unix_time =
  let c = Tip_core.Chronon.of_unix_seconds (int_of_float unix_time) in
  typed_value "instant" (Tip_core.Chronon.to_string c) (Value.Date c)

(* An ASH sample's valid time: the closed chronon span of its tick, as
   a one-period ELEMENT — the same shape as any valid-time column, so
   the set-algebra [overlaps]/[contains] predicates (and the planner's
   sargable pruning) window it exactly like table history. Chronons are
   second-granular, so a 100ms tick renders as the degenerate period
   [t, t] — closed, hence still windowable. *)
let period_value ~from_s ~to_s =
  let c1 = Tip_core.Chronon.of_unix_seconds (int_of_float from_s) in
  let c2 = Tip_core.Chronon.of_unix_seconds (int_of_float (Float.max from_s to_s)) in
  let text =
    Printf.sprintf "{[%s, %s]}"
      (Tip_core.Chronon.to_string c1)
      (Tip_core.Chronon.to_string c2)
  in
  typed_value "element" text (Value.Str text)

let register vt_name ~help vt_cols vt_rows =
  Vtab.register { Vtab.vt_name; vt_cols; vt_help = help; vt_rows }

let () =
  register "tip_stat_statements"
    ~help:"statement fingerprints with latency and row aggregates"
    [| "query"; "calls"; "total_ms"; "mean_ms"; "min_ms"; "max_ms"; "p50_ms";
       "p95_ms"; "p99_ms"; "rows_returned"; "rows_scanned"; "errors";
       "cancellations" |]
    (fun _catalog ->
      List.map
        (fun (s : Introspect.stat) ->
          let pct q =
            Value.Float (Metrics.percentile_of_buckets s.buckets q /. 1e6)
          in
          [| Value.Str s.Introspect.query;
             Value.Int s.calls;
             ms s.total_ns;
             (if s.calls = 0 then Value.Null
              else ms (s.total_ns / s.calls));
             ms s.min_ns;
             ms s.max_ns;
             pct 0.50;
             pct 0.95;
             pct 0.99;
             Value.Int s.rows_returned;
             Value.Int s.rows_scanned;
             Value.Int s.errors;
             Value.Int s.cancelled |])
        (Introspect.snapshot ()));
  register "tip_stat_metrics"
    ~help:"the process metrics registry, one row per metric"
    [| "name"; "kind"; "value"; "sum_ns"; "p50_ms"; "p95_ms"; "p99_ms" |]
    (fun _catalog ->
      List.map
        (fun (i : Metrics.info) ->
          let p sel =
            match i.Metrics.i_percentiles with
            | Some ps -> Value.Float (sel ps /. 1e6)
            | None -> Value.Null
          in
          [| Value.Str i.Metrics.i_name;
             Value.Str i.i_kind;
             Value.Int i.i_value;
             (match i.i_sum_ns with
             | Some s -> Value.Int s
             | None -> Value.Null);
             p (fun (a, _, _) -> a);
             p (fun (_, b, _) -> b);
             p (fun (_, _, c) -> c) |])
        (Metrics.infos ()));
  register "tip_stat_tables"
    ~help:"per-table live rows, access counters and ANALYZE state"
    [| "table_name"; "row_count"; "index_count"; "scans"; "scan_rows";
       "writes"; "last_analyzed"; "histogram_buckets" |]
    (fun catalog ->
      List.filter_map
        (fun name ->
          match Catalog.find_table catalog name with
          | None -> None
          | Some tbl ->
            let analyzed, buckets =
              match Table.stats tbl with
              | Some st ->
                ( Value.Str st.Stats.st_analyzed_at,
                  Value.Int st.Stats.st_buckets )
              | None -> (Value.Null, Value.Null)
            in
            Some
              [| Value.Str name;
                 Value.Int (Table.row_count tbl);
                 Value.Int (List.length (Table.indexes tbl));
                 Value.Int (Table.scan_count tbl);
                 Value.Int (Table.scan_row_count tbl);
                 Value.Int (Table.write_count tbl);
                 analyzed;
                 buckets |])
        (Catalog.table_names catalog));
  register "tip_stat_partitions"
    ~help:
      "partitions of range-partitioned tables: bounds, end watermark and \
       pruning counters"
    [| "table_name"; "partition"; "from_bound"; "to_bound"; "is_default";
       "row_count"; "max_end"; "kept_scans"; "pruned_scans" |]
    (fun catalog ->
      List.concat_map
        (fun parent ->
          match Catalog.find_partitioned catalog parent with
          | None -> []
          | Some pt ->
            List.map
              (fun (p : Partition.part) ->
                let wm = Atomic.get p.Partition.p_max_end in
                [| Value.Str parent;
                   Value.Str p.Partition.p_name;
                   (if p.Partition.p_default then Value.Null
                    else Value.Str (Partition.bound_to_string p.Partition.p_from));
                   (if p.Partition.p_default then Value.Null
                    else Value.Str (Partition.bound_to_string p.Partition.p_to));
                   Value.Bool p.Partition.p_default;
                   Value.Int (Table.row_count p.Partition.p_table);
                   (if wm = min_int then Value.Null
                    else Value.Str (Partition.bound_to_string wm));
                   Value.Int (Atomic.get p.Partition.p_scanned);
                   Value.Int (Atomic.get p.Partition.p_pruned) |])
              (Partition.all_parts pt))
        (Catalog.partitioned_names catalog));
  register "tip_stat_waits"
    ~help:
      "cumulative wait-event profile: completed waits and total waited time \
       per class"
    [| "wait_class"; "waits"; "total_wait_ms" |]
    (fun _catalog ->
      List.map
        (fun (cls, count, total_ns) ->
          [| Value.Str (Span.label cls); Value.Int count; ms total_ns |])
        (Span.wait_stats ()));
  register "tip_stat_ash"
    ~help:
      "active session history: periodic samples of every session's current \
       statement and wait state, each with a valid-time PERIOD"
    [| "sample_seq"; "at"; "session_id"; "kind"; "query"; "wait_class";
       "valid" |]
    (fun _catalog ->
      List.map
        (fun (sa : Tip_obs.Ash.sample) ->
          [| Value.Int sa.sa_seq;
             instant_value sa.sa_at;
             Value.Int sa.sa_session;
             Value.Str sa.sa_kind;
             (match sa.sa_query with
             | Some q -> Value.Str q
             | None -> Value.Null);
             Value.Str sa.sa_state;
             period_value ~from_s:sa.sa_at
               ~to_s:(sa.sa_at +. (float_of_int sa.sa_interval_ms /. 1000.)) |])
        (Tip_obs.Ash.samples ()));
  register "tip_stat_events"
    ~help:
      "the structured event journal: checkpoints, backups, recovery, \
       promotions, epoch changes"
    [| "seq"; "at"; "kind"; "detail" |]
    (fun _catalog ->
      List.map
        (fun (ev : Tip_obs.Events.event) ->
          [| Value.Int ev.ev_seq;
             instant_value ev.ev_at;
             Value.Str ev.ev_kind;
             Value.Str ev.ev_detail |])
        (Tip_obs.Events.events ()))
