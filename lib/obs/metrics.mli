(** Process-wide metrics registry.

    Counters and histograms are sharded per domain (the writer picks a
    shard from [Domain.self ()]) and merged on read, so sessions running
    on different domains never contend on a lock. Gauges are single
    atomics: they are written rarely (pool resizes, session open/close).

    The registry is enabled unless the [TIP_METRICS] environment
    variable is set to [off]/[0]/[false]; [set_enabled] toggles it at
    runtime (used by the overhead benchmark). When disabled, writes are
    a single atomic load and branch. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Counters} — monotonically increasing integers. *)

type counter

val counter : ?help:string -> string -> counter
(** [counter name] registers (or retrieves) the counter called [name].
    Registration is idempotent; a kind clash raises [Invalid_argument]. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges} — values that go up and down. *)

type gauge

val gauge : ?help:string -> string -> gauge
val gauge_set : gauge -> int -> unit
val gauge_add : gauge -> int -> unit
val gauge_value : gauge -> int

(** {1 Histograms} — fixed-bucket latency distributions (nanoseconds).

    Buckets are powers of ten from 1us to 10s plus a +inf overflow;
    every observation lands in the first bucket whose upper bound is
    >= the value. *)

type histogram

val histogram : ?help:string -> string -> histogram

val observe : histogram -> int -> unit
(** [observe h ns] records a latency of [ns] nanoseconds. *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> int

val bucket_labels : string array
(** Upper-bound labels, ["1us"] ... ["10s"; "inf"]. *)

val bounds : int array
(** Finite bucket upper bounds in nanoseconds (one shorter than
    {!bucket_labels}: the overflow bucket has no bound). *)

val histogram_buckets : histogram -> int array
(** Cumulative per-bucket counts, merged across shards. *)

val percentile : histogram -> float -> float
(** [percentile h q] (with [q] in [0, 1]) estimates the q-th latency
    percentile in nanoseconds by linear interpolation within the bucket
    holding the q-th observation. The unbounded overflow bucket clamps
    to the last finite bound; an empty histogram reports 0. *)

val percentile_of_buckets : int array -> float -> float
(** {!percentile} over explicit non-cumulative bucket counts aligned
    with {!bucket_labels} (exposed for stores that keep their own
    bucket arrays, and for testing the interpolation directly). *)

(** {1 Exposition} *)

type sample = { s_name : string; s_kind : string; s_value : int }

val samples : unit -> sample list
(** Flattened registry, sorted by name. Histograms expand into
    [name_count], [name_sum_ns], interpolated [name_p50_ns] /
    [name_p95_ns] / [name_p99_ns] and cumulative [name_le_<bound>]
    rows. *)

(** One row per registered metric, histograms carried whole — the
    backing of the [tip_stat_metrics] virtual table. *)
type info = {
  i_name : string;
  i_kind : string;  (** ["counter"], ["gauge"] or ["histogram"] *)
  i_value : int;  (** counter/gauge value; histogram observation count *)
  i_sum_ns : int option;  (** histograms only *)
  i_percentiles : (float * float * float) option;
      (** interpolated (p50, p95, p99) in nanoseconds; histograms only *)
}

val infos : unit -> info list
(** The registry sorted by name, one {!info} per metric. *)

val dump_text : unit -> string
(** Prometheus text exposition (format 0.0.4) of every registered
    metric — the payload of the wire protocol's [M] request and of the
    monitor endpoint's [/metrics]. Histograms are genuine histogram
    families (cumulative [_bucket{le="..."}] in nanoseconds plus
    [_sum]/[_count]); the interpolated [_p50_ns]/[_p95_ns]/[_p99_ns]
    conveniences follow as separate gauge families, and HELP text is
    escaped, so the page parses under a strict scraper. *)

val reset_all : unit -> unit
(** Zero every registered metric (tests and benchmarks). *)
