(* Shard-and-merge metrics registry.

   Writers pick a shard from the current domain id, so concurrent
   sessions on distinct domains touch distinct atomics most of the
   time; readers sum the shards. This trades exactness of *when* a
   read observes a concurrent write (fine for monitoring) for writes
   that are one [Atomic.fetch_and_add] with no lock.

   The registration path (rare) is guarded by a mutex; metric handles
   are created once at module-init time and cached by the callers. *)

let shard_count = 16 (* power of two: shard pick is a mask *)
let shard () = (Domain.self () :> int) land (shard_count - 1)

let enabled_flag =
  Atomic.make
    (match Sys.getenv_opt "TIP_METRICS" with
    | Some ("off" | "0" | "false" | "OFF") -> false
    | _ -> true)

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

type counter = { c_cells : int Atomic.t array }
type gauge = { g_cell : int Atomic.t }

let bounds =
  [|
    1_000 (* 1us *); 10_000; 100_000; 1_000_000 (* 1ms *); 10_000_000;
    100_000_000; 1_000_000_000 (* 1s *); 10_000_000_000;
  |]

let bucket_labels =
  [| "1us"; "10us"; "100us"; "1ms"; "10ms"; "100ms"; "1s"; "10s"; "inf" |]

type histogram = {
  h_cells : int Atomic.t array array; (* shard -> bucket (bounds+1 overflow) *)
  h_sum : int Atomic.t array; (* per shard *)
  h_count : int Atomic.t array;
}

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_histogram of histogram

let registry : (string, metric * string) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let with_lock f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let atomic_cells n = Array.init n (fun _ -> Atomic.make 0)

let register ?(help = "") name make unwrap =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (m, _) -> (
        match unwrap m with
        | Some v -> v
        | None -> invalid_arg ("Metrics: kind mismatch for " ^ name))
      | None ->
        let v, m = make () in
        Hashtbl.replace registry name (m, help);
        v)

let counter ?help name =
  register ?help name
    (fun () ->
      let c = { c_cells = atomic_cells shard_count } in
      (c, M_counter c))
    (function M_counter c -> Some c | _ -> None)

let add c n =
  if Atomic.get enabled_flag then
    ignore (Atomic.fetch_and_add c.c_cells.(shard ()) n)

let incr c = add c 1
let sum_cells cells = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 cells
let counter_value c = sum_cells c.c_cells

let gauge ?help name =
  register ?help name
    (fun () ->
      let g = { g_cell = Atomic.make 0 } in
      (g, M_gauge g))
    (function M_gauge g -> Some g | _ -> None)

let gauge_set g v = if Atomic.get enabled_flag then Atomic.set g.g_cell v

let gauge_add g n =
  if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add g.g_cell n)

let gauge_value g = Atomic.get g.g_cell

let histogram ?help name =
  register ?help name
    (fun () ->
      let h =
        {
          h_cells =
            Array.init shard_count (fun _ ->
                atomic_cells (Array.length bounds + 1));
          h_sum = atomic_cells shard_count;
          h_count = atomic_cells shard_count;
        }
      in
      (h, M_histogram h))
    (function M_histogram h -> Some h | _ -> None)

let bucket_of ns =
  let n = Array.length bounds in
  let rec go i = if i >= n || ns <= bounds.(i) then i else go (i + 1) in
  go 0

let observe h ns =
  if Atomic.get enabled_flag then begin
    let s = shard () in
    ignore (Atomic.fetch_and_add h.h_cells.(s).(bucket_of ns) 1);
    ignore (Atomic.fetch_and_add h.h_sum.(s) ns);
    ignore (Atomic.fetch_and_add h.h_count.(s) 1)
  end

let histogram_count h = sum_cells h.h_count
let histogram_sum h = sum_cells h.h_sum

(* Non-cumulative per-bucket counts merged across shards. *)
let raw_buckets h =
  let merged = Array.make (Array.length bounds + 1) 0 in
  Array.iter
    (fun cells ->
      Array.iteri (fun i a -> merged.(i) <- merged.(i) + Atomic.get a) cells)
    h.h_cells;
  merged

(* Interpolated percentile over non-cumulative bucket counts: find the
   bucket holding the q-th observation and interpolate linearly between
   its bounds (a uniform-within-bucket assumption). The overflow bucket
   has no upper bound, so it clamps to the last finite bound — a p99 of
   "at least 10s" reads as 10s rather than infinity. *)
let percentile_of_buckets buckets q =
  let total = Array.fold_left ( + ) 0 buckets in
  if total = 0 then 0.
  else begin
    let last = float_of_int bounds.(Array.length bounds - 1) in
    let rank = q *. float_of_int total in
    let rec go i seen =
      if i >= Array.length buckets then last
      else begin
        let here = buckets.(i) in
        if here > 0 && float_of_int (seen + here) >= rank then begin
          let lo = if i = 0 then 0. else float_of_int bounds.(i - 1) in
          let hi = if i < Array.length bounds then float_of_int bounds.(i) else last in
          let frac = (rank -. float_of_int seen) /. float_of_int here in
          Float.min (lo +. (frac *. (hi -. lo))) last
        end
        else go (i + 1) (seen + here)
      end
    in
    go 0 0
  end

let percentile h q = percentile_of_buckets (raw_buckets h) q

(* Per-bucket counts merged across shards, made cumulative (Prometheus
   histogram semantics: bucket le=X counts every observation <= X). *)
let histogram_buckets h =
  let nbuckets = Array.length bounds + 1 in
  let merged = Array.make nbuckets 0 in
  Array.iter
    (fun cells ->
      Array.iteri (fun i a -> merged.(i) <- merged.(i) + Atomic.get a) cells)
    h.h_cells;
  let acc = ref 0 in
  Array.map
    (fun v ->
      acc := !acc + v;
      !acc)
    merged

type sample = { s_name : string; s_kind : string; s_value : int }

let metrics_sorted () =
  with_lock (fun () ->
      Hashtbl.fold (fun name (m, help) acc -> (name, m, help) :: acc) registry [])
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let samples () =
  metrics_sorted ()
  |> List.concat_map (fun (name, m, _) ->
         match m with
         | M_counter c ->
           [ { s_name = name; s_kind = "counter"; s_value = counter_value c } ]
         | M_gauge g ->
           [ { s_name = name; s_kind = "gauge"; s_value = gauge_value g } ]
         | M_histogram h ->
           let buckets = histogram_buckets h in
           let raw = raw_buckets h in
           let pct q = int_of_float (percentile_of_buckets raw q) in
           ({ s_name = name ^ "_count";
              s_kind = "histogram";
              s_value = histogram_count h }
           :: { s_name = name ^ "_sum_ns";
                s_kind = "histogram";
                s_value = histogram_sum h }
           :: { s_name = name ^ "_p50_ns";
                s_kind = "histogram";
                s_value = pct 0.50 }
           :: { s_name = name ^ "_p95_ns";
                s_kind = "histogram";
                s_value = pct 0.95 }
           :: { s_name = name ^ "_p99_ns";
                s_kind = "histogram";
                s_value = pct 0.99 }
           :: Array.to_list
                (Array.mapi
                   (fun i v ->
                     { s_name =
                         Printf.sprintf "%s_le_%s" name bucket_labels.(i);
                       s_kind = "histogram";
                       s_value = v })
                   buckets)))

(* One row per registered metric (histograms NOT expanded into bucket
   samples), for the tip_stat_metrics virtual table. *)
type info = {
  i_name : string;
  i_kind : string;
  i_value : int; (* counter/gauge value; histogram observation count *)
  i_sum_ns : int option; (* histograms only *)
  i_percentiles : (float * float * float) option; (* p50/p95/p99, ns *)
}

let infos () =
  metrics_sorted ()
  |> List.map (fun (name, m, _) ->
         match m with
         | M_counter c ->
           { i_name = name;
             i_kind = "counter";
             i_value = counter_value c;
             i_sum_ns = None;
             i_percentiles = None }
         | M_gauge g ->
           { i_name = name;
             i_kind = "gauge";
             i_value = gauge_value g;
             i_sum_ns = None;
             i_percentiles = None }
         | M_histogram h ->
           let raw = raw_buckets h in
           let pct q = percentile_of_buckets raw q in
           { i_name = name;
             i_kind = "histogram";
             i_value = histogram_count h;
             i_sum_ns = Some (histogram_sum h);
             i_percentiles = Some (pct 0.50, pct 0.95, pct 0.99) })

(* Prometheus exposition text: HELP payloads escape backslash and
   newline (the format's two escapes on HELP lines). *)
let escape_help s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let dump_text () =
  let buf = Buffer.create 1024 in
  let help_line name help =
    if help <> "" then
      Buffer.add_string buf
        (Printf.sprintf "# HELP tip_%s %s\n" name (escape_help help))
  in
  List.iter
    (fun (name, m, help) ->
      match m with
      | M_counter c ->
        help_line name help;
        Buffer.add_string buf (Printf.sprintf "# TYPE tip_%s counter\n" name);
        Buffer.add_string buf
          (Printf.sprintf "tip_%s %d\n" name (counter_value c))
      | M_gauge g ->
        help_line name help;
        Buffer.add_string buf (Printf.sprintf "# TYPE tip_%s gauge\n" name);
        Buffer.add_string buf (Printf.sprintf "tip_%s %d\n" name (gauge_value g))
      | M_histogram h ->
        (* A histogram family may only contain _bucket/_sum/_count
           samples; the percentile conveniences are emitted after it as
           their own gauge families so a strict scraper accepts the
           whole page. *)
        help_line name help;
        Buffer.add_string buf (Printf.sprintf "# TYPE tip_%s histogram\n" name);
        let buckets = histogram_buckets h in
        Array.iteri
          (fun i v ->
            let le =
              if i < Array.length bounds then string_of_int bounds.(i)
              else "+Inf"
            in
            Buffer.add_string buf
              (Printf.sprintf "tip_%s_bucket{le=\"%s\"} %d\n" name le v))
          buckets;
        Buffer.add_string buf
          (Printf.sprintf "tip_%s_sum %d\n" name (histogram_sum h));
        Buffer.add_string buf
          (Printf.sprintf "tip_%s_count %d\n" name (histogram_count h));
        let raw = raw_buckets h in
        List.iter
          (fun (label, q) ->
            Buffer.add_string buf
              (Printf.sprintf "# TYPE tip_%s_%s gauge\n" name label);
            Buffer.add_string buf
              (Printf.sprintf "tip_%s_%s %.0f\n" name label
                 (percentile_of_buckets raw q)))
          [ ("p50_ns", 0.50); ("p95_ns", 0.95); ("p99_ns", 0.99) ])
    (metrics_sorted ());
  Buffer.contents buf

let reset_all () =
  with_lock (fun () ->
      Hashtbl.iter
        (fun _ (m, _) ->
          match m with
          | M_counter c -> Array.iter (fun a -> Atomic.set a 0) c.c_cells
          | M_gauge g -> Atomic.set g.g_cell 0
          | M_histogram h ->
            Array.iter (Array.iter (fun a -> Atomic.set a 0)) h.h_cells;
            Array.iter (fun a -> Atomic.set a 0) h.h_sum;
            Array.iter (fun a -> Atomic.set a 0) h.h_count)
        registry)
