(* tipbench: the end-to-end benchmark of a live tip_serve.

   For each workload it builds the data from the seed in-process, starts
   the repository's own tip_serve as a child process on a loopback
   port, drives it through Tip_server.Remote from at most
   min(2, nproc) connections, checks the answers against an embedded
   database holding the same data, and prints every metric by name with
   its unit. The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

   Usage:
     tipbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
              [--json FILE] [--set LABEL]
     tipbench --smoke
     tipbench compare OLD.json[#SET]... -- NEW.json[#SET]...

   The end-to-end metrics are measured with tracing off. A traced run
   (--trace 1) drives the same workload and seed, alternating one-second
   traced and untraced slices so the tracing overhead is measured inside
   the run, and splits the latency a client sees into the server's
   layers from counters read over the wire around the window. It reads
   the server only through the wire and /proc. See README.md. *)

module Db = Tip_engine.Database
module Remote = Tip_server.Remote
module W = Workloads

let now = Unix.gettimeofday

(* --- The metric catalogue ------------------------------------------------- *)

type better = Lower | Higher

type spec = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;  (** share of the old median it may worsen by; end-to-end only *)
  listed : bool;
      (** listed in BENCHMARK.json, which takes only metrics that every
          workload reports, that are never a constant, and that are
          steady enough on a shared machine to hold a bound *)
}

let spec ?(bound = nan) ?(listed = true) name unit_ better =
  { name; unit_; better; bound; listed }

(* Every timing bound is the widest BENCHMARK.json allows: on the shared
   2-core machine the baseline was taken on, timings spread 10-20%
   across seeds and drift by up to 30% between sets of runs minutes
   apart (README.md). Unlisted: the write percentiles
   (temporal_analytics has no writes), error_rate (zero), and the
   latencies, server CPU and recovery_s, whose spread or drift there
   exceeds any allowed bound. All are reported and compared. *)
let end_to_end =
  [ spec "setup_s" "s" Lower ~bound:0.25;
    spec "throughput_sps" "1/s" Higher ~bound:0.25;
    spec "latency_p50_ms" "ms" Lower ~bound:0.25 ~listed:false;
    spec "latency_p99_ms" "ms" Lower ~bound:0.25 ~listed:false;
    spec "read_p50_ms" "ms" Lower ~bound:0.25 ~listed:false;
    spec "read_p99_ms" "ms" Lower ~bound:0.25 ~listed:false;
    spec "write_p50_ms" "ms" Lower ~bound:0.25 ~listed:false;
    spec "write_p99_ms" "ms" Lower ~bound:0.25 ~listed:false;
    spec "error_rate" "fraction" Lower ~bound:0. ~listed:false;
    spec "server_cpu_us_per_stmt" "us" Lower ~bound:0.25 ~listed:false;
    spec "server_rss_mb" "MB" Lower ~bound:0.10;
    spec "recovery_s" "s" Lower ~bound:0.25 ~listed:false ]

let per_layer =
  [ spec "trace_overhead_pct" "%" Lower;
    spec "remote.rtt_us" "us" Lower;
    spec "server.respond_us" "us" Lower;
    spec "server.session_us" "us" Lower;
    spec "sql.parse_us" "us" Lower;
    spec "server.lock_wait_us" "us" Lower;
    spec "engine.stmt_us" "us" Lower;
    spec "engine.exec_us" "us" Lower;
    spec "executor.rows_scanned_per_stmt" "count" Lower;
    spec "executor.parallel_share" "fraction" Higher;
    spec "executor.morsels_per_query" "count" Higher;
    spec "storage.btree_probes_per_stmt" "count" Lower;
    spec "storage.interval_probes_per_stmt" "count" Lower ~listed:false;
    spec "storage.wal_fsync_us" "us" Lower ~listed:false;
    spec "storage.fsyncs_per_commit" "count" Lower;
    spec "storage.wal_bytes_per_commit" "B" Lower;
    spec "storage.wal_records" "count" Lower;
    spec "storage.checkpoints" "count" Lower;
    spec "storage.checkpoint_ms" "ms" Lower ~listed:false;
    spec "bench.residual_us" "us" Lower;
    (* microsecond-quantized on closed loops: it repeats exactly *)
    spec "gen.lag_p99_ms" "ms" Lower ~listed:false;
    spec "gen.cpu_pct" "%" Lower ]

(* Per-fingerprint engine means, one per statement class of the workload
   (engine.window_count_ms, ...): workload-specific, so never listed in
   BENCHMARK.json. *)
let class_metric (c : W.cls) = spec ("engine." ^ c.W.c_name ^ "_ms") "ms" Lower ~listed:false

(* --- Options ------------------------------------------------------------------ *)

type opts = {
  seed : int;
  seconds : float;
  warmup : float;
  server : string;
  set_label : string;
}

(* Data, server logs and traces, relative to the directory tipbench runs
   in: the root of the checkout. *)
let work_dir = ".tipbench"

(* --- Connections and the load generator -------------------------------------- *)

type sample = {
  conn : int;
  cls : W.cls;
  ready : float;  (** when the generator could have sent: due or previous answer *)
  due : float;  (** latency origin: the schedule slot, or the send time *)
  sent : float;
  done_ : float;
  ok : bool;
  traced : bool;
}

type conn = {
  idx : int;
  remote : Remote.t;
  stream : W.stream;
  rng : Random.State.t;
  mutable seq : int;
  acked : (string, int) Hashtbl.t;
  mutable samples : sample list;
  mutable probes : (float * float) list;
  mutable texts : (float * string) list;
}

let connect port = Remote.connect ~port ~deadline:60. ()

let parse_texts_wanted = 5_000

(* Odd seconds of the window are traced, even ones untraced. *)
let traced_at ~trace ~origin t = trace && int_of_float (t -. origin) land 1 = 1

(* Sends one statement of the connection's mix and records it. In a
   traced slice every 50th statement is preceded by an L probe, which
   the server's session loop answers with no parse, lock or engine work. *)
let send_statement c ~record ~trace ~origin ~ready ~due =
  let cls = W.pick c.stream.W.classes c.rng in
  let sql = cls.W.c_sql c.rng c.seq in
  let traced = record && traced_at ~trace ~origin (now ()) in
  let ready =
    if traced && c.seq mod 50 = 0 then begin
      let t0 = now () in
      (match Remote.staleness c.remote with
      | _ -> c.probes <- (t0, now ()) :: c.probes
      | exception Remote.Remote_error _ -> ());
      (* the probe is not generator lateness *)
      ready +. (now () -. t0)
    end
    else ready
  in
  c.seq <- c.seq + 1;
  let sent = now () in
  let ok =
    match Remote.execute c.remote sql with
    | _ -> true
    | exception (Remote.Remote_error _ | Sys_error _ | Unix.Unix_error _ | Failure _) ->
      false
  in
  let done_ = now () in
  if ok then
    Hashtbl.replace c.acked cls.W.c_name
      (1 + Option.value (Hashtbl.find_opt c.acked cls.W.c_name) ~default:0);
  if c.seq <= parse_texts_wanted then c.texts <- (sent, sql) :: c.texts;
  if record then
    c.samples <-
      { conn = c.idx; cls; ready; due = Option.value due ~default:sent; sent; done_;
        ok; traced }
      :: c.samples;
  done_

(* A closed loop sends the next statement as soon as the last one is
   answered; an open loop sends on a fixed schedule and times each
   statement from its due slot, so a stall is charged to every
   statement it delays. *)
let drive c ~start ~stop ~record ~trace =
  match c.stream.W.rate with
  | None ->
    let rec go ready =
      if now () < stop then go (send_statement c ~record ~trace ~origin:start ~ready ~due:None)
    in
    go (now ())
  | Some rate ->
    let rec go i =
      let due = start +. (float_of_int i /. rate) in
      if due < stop then begin
        let wait = due -. now () in
        if wait > 0. then Unix.sleepf wait;
        ignore (send_statement c ~record ~trace ~origin:start ~ready:due ~due:(Some due));
        go (i + 1)
      end
    in
    go 0

(* One phase: every connection on its own generator thread until the
   phase ends, while this thread calls [each_second k] at every whole
   second k of the phase. Returns the phase's start time. *)
let run_phase ?(each_second = ignore) conns ~seconds ~record ~trace =
  let start = now () in
  let stop = start +. seconds in
  let threads =
    List.map (fun c -> Thread.create (fun () -> drive c ~start ~stop ~record ~trace) ()) conns
  in
  for k = 0 to int_of_float seconds do
    Thread.delay (Float.max 0. (start +. float_of_int k -. now ()));
    each_second k
  done;
  List.iter Thread.join threads;
  start

let acked conns name =
  List.fold_left
    (fun n c -> n + Option.value (Hashtbl.find_opt c.acked name) ~default:0)
    0 conns

(* --- Server counters over the wire ------------------------------------------- *)

type counters = {
  metrics : (string * float) list;
  waits : (string * (float * float)) list;  (** class -> (waits, total ms) *)
  stmts : (string * (float * float)) list;  (** fingerprint -> (calls, total ms) *)
}

let parse_metrics text =
  List.filter_map
    (fun line ->
      if line = "" || line.[0] = '#' || String.contains line '{' then None
      else
        match String.split_on_char ' ' line with
        | [ name; v ] -> Option.map (fun f -> (name, f)) (float_of_string_opt v)
        | _ -> None)
    (String.split_on_char '\n' text)

let rows remote sql = Db.rows_exn (Remote.execute remote sql)

let read_waits remote =
  List.map
    (fun r ->
      (Tip_storage.Value.to_display_string r.(0),
       (Tip_storage.Value.to_float r.(1), Tip_storage.Value.to_float r.(2))))
    (rows remote "SELECT wait_class, waits, total_wait_ms FROM tip_stat_waits")

let read_stmts remote =
  List.map
    (fun r ->
      (String.lowercase_ascii (Tip_storage.Value.to_display_string r.(0)),
       (Tip_storage.Value.to_float r.(1), Tip_storage.Value.to_float r.(2))))
    (rows remote "SELECT query, calls, total_ms FROM tip_stat_statements")

(* The metrics dump is taken nearest the window on both sides, so its
   deltas cover exactly the window's statements. *)
let counters_before remote =
  let waits = read_waits remote in
  let stmts = read_stmts remote in
  { metrics = parse_metrics (Remote.metrics remote); waits; stmts }

let counters_after remote =
  let metrics = parse_metrics (Remote.metrics remote) in
  let waits = read_waits remote in
  { metrics; waits; stmts = read_stmts remote }

let metric c name = Option.value (List.assoc_opt ("tip_" ^ name) c.metrics) ~default:0.

let wait c cls = Option.value (List.assoc_opt cls c.waits) ~default:(0., 0.)

(* Calls and total ms of the fingerprints carrying all of [markers]. *)
let fingerprint c markers =
  List.fold_left
    (fun (n, ms) (q, (calls, total)) ->
      if List.for_all (Proc.contains q) markers then (n +. calls, ms +. total) else (n, ms))
    (0., 0.) c.stmts

(* --- Statistics -------------------------------------------------------------------- *)

let sorted_array l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let mean l = if l = [] then nan else List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* Nearest-rank percentile, reported only when at least ten samples lie
   beyond it. *)
let percentile a q =
  let n = Array.length a in
  if float_of_int n *. (1. -. q) < 10. then None
  else Some a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median_of a =
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median l = median_of (sorted_array l)

(* First and third quartile as Python's statistics.quantiles(n=4)
   computes them (the exclusive method). *)
let quartiles a =
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else begin
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)
  end

(* --- Server life cycle and checks ------------------------------------------------ *)

let cold_starts = 5
let restarts = 3
let recovery_tail = 1_000

(* Spawn to first answered statement. *)
let start_server opts ~args ~log =
  let t0 = now () in
  let srv = Proc.spawn ~exe:opts.server ~log args in
  let r = connect srv.Proc.port in
  ignore (Remote.execute r "SELECT COUNT(*) FROM acct");
  (srv, r, now () -. t0)

(* [cold_starts] starts on the prepared data; the last server stays up.
   Returns it with the median start time. *)
let setup opts ~args ~log =
  let rec go i times =
    let srv, r, secs = start_server opts ~args ~log in
    if i = cold_starts then (srv, r, median (secs :: times))
    else begin
      Proc.kill_pid Sys.sigkill srv.Proc.pid;
      Remote.close r;
      go (i + 1) (secs :: times)
    end
  in
  go 1 []

let check ok what =
  if not ok then Printf.printf "  CHECK FAILED: %s\n%!" what;
  if ok then 0 else 1

(* 50 statements per read class, compared as row multisets with the
   embedded database built from the same seed. Returns the failures. *)
let answer_checks w ~seed ~db ~remote =
  let expected = Hashtbl.create 64 in
  List.concat_map
    (fun (i, c) ->
      if c.W.c_kind <> W.Read then []
      else begin
        let st = Random.State.make [| seed; 1000 + i |] in
        List.init 50 (fun k ->
            let sql = c.W.c_sql st k in
            let want =
              match Hashtbl.find_opt expected sql with
              | Some v -> v
              | None ->
                let v = W.canonical (Db.exec db sql) in
                Hashtbl.add expected sql v;
                v
            in
            let got =
              try Some (W.canonical (Remote.execute remote sql))
              with Remote.Remote_error _ -> None
            in
            check (got = Some want) ("answer differs from embedded: " ^ sql))
      end)
    (List.mapi (fun i c -> (i, c)) (W.classes w))
  |> List.fold_left ( + ) 0

(* Every acknowledged balance update and tagged insert is visible. *)
let count_checks remote ~what ~bal ~tagged =
  let expect sql want =
    let got = try W.scalar_int (Remote.execute remote sql) with Remote.Remote_error _ -> None in
    check (got = Some want)
      (Printf.sprintf "%s: %s = %s, expected %d" what sql
         (match got with Some g -> string_of_int g | None -> "error")
         want)
  in
  expect W.sum_bal_sql bal + expect W.tagged_sql tagged

(* Kills the server and restarts it on the same data [restarts] times;
   returns the median time from SIGKILL to the first answer, and the
   failed checks. Before each crash a durable server checkpoints and then
   acknowledges the same tail of balance updates, so every restart
   replays an identical WAL tail and must bring back every acknowledged
   write; an in-memory server comes back as its snapshot. *)
let crash_restarts opts w ~args ~log (srv, r) ~bal ~tagged =
  let rec go i (srv, r) times checks bal =
    let bal =
      if not w.W.durable then bal
      else begin
        ignore (Remote.execute r "CHECKPOINT");
        for k = 0 to recovery_tail - 1 do
          ignore (Remote.execute r (W.bal_update (k mod W.accounts)))
        done;
        bal + recovery_tail
      end
    in
    let t0 = now () in
    Proc.kill_pid Sys.sigkill srv.Proc.pid;
    Remote.close r;
    let srv, r, _ = start_server opts ~args ~log in
    let times = (now () -. t0) :: times in
    let checks =
      checks
      + count_checks r ~what:"after kill and restart"
          ~bal:(if w.W.durable then bal else 0)
          ~tagged:(if w.W.durable then tagged else 0)
    in
    if i < restarts then go (i + 1) (srv, r) times checks bal
    else begin
      Remote.close r;
      Proc.kill_pid Sys.sigkill srv.Proc.pid;
      (median times, checks)
    end
  in
  go 1 (srv, r) [] 0 bal

(* --- The measured window ------------------------------------------------------------ *)

type window = {
  start : float;
  samples : sample list;
  server_cpu : float array;
      (** the server's CPU microseconds at each whole second of the
          window, then once more after its last statement *)
  gen_cpu_pct : float;
  counters : (counters * counters) option;  (** before and after, traced runs *)
}

let measure_window opts w srv conns ~trace =
  let r0 = (List.hd conns).remote in
  (* From a fresh checkpoint, the auto-checkpoints inside the window fall
     at the same WAL record offsets on every run. *)
  if w.W.durable then ignore (Remote.execute r0 "CHECKPOINT");
  let before = if trace then Some (counters_before r0) else None in
  let cpu = Array.make (int_of_float opts.seconds + 1) nan in
  let gen0 = Proc.self_cpu_s () in
  let start =
    run_phase conns ~seconds:opts.seconds ~record:true ~trace
      ~each_second:(fun k -> cpu.(k) <- Proc.cpu_us srv.Proc.pid)
  in
  let gen_cpu_pct = (Proc.self_cpu_s () -. gen0) /. (now () -. start) *. 100. in
  { start;
    samples = List.concat_map (fun (c : conn) -> List.rev c.samples) conns;
    server_cpu = Array.append cpu [| Proc.cpu_us srv.Proc.pid |];
    gen_cpu_pct;
    counters = Option.map (fun b -> (b, counters_after r0)) before }

(* What the client saw: from the due slot (open loop) or the send. *)
let latency_ms s = (s.done_ -. s.due) *. 1e3

let lateness_ms win = sorted_array (List.map (fun s -> (s.sent -. s.ready) *. 1e3) win.samples)

(* The statements the end-to-end statistics are taken over, the seconds
   they span and the server CPU microseconds spent in them. A closed
   loop adapts its load to the machine, so a second in which a neighbour
   on a shared host takes the CPU just runs slower, and such seconds
   dominate the run-to-run noise: closed loops keep the faster half of
   the window's whole seconds. An open loop keeps every statement, since
   a stall there delays every statement queued behind it. *)
let steady w win =
  let ok = List.filter (fun s -> s.ok) win.samples in
  let cpu = win.server_cpu in
  if List.exists (fun s -> s.W.rate <> None) w.W.streams then begin
    let last = List.fold_left (fun m s -> Float.max m s.done_) win.start ok in
    (ok, last -. win.start, cpu.(Array.length cpu - 1) -. cpu.(0))
  end
  else begin
    let seconds = Array.length cpu - 2 in
    let slice s = int_of_float (s.done_ -. win.start) in
    let count = Array.make seconds 0 in
    List.iter (fun s -> if slice s < seconds then count.(slice s) <- count.(slice s) + 1) ok;
    let fastest =
      List.sort (fun a b -> compare count.(b) count.(a)) (List.init seconds Fun.id)
      |> List.filteri (fun i _ -> i < (seconds + 1) / 2)
    in
    let kept = Array.make seconds false in
    List.iter (fun k -> kept.(k) <- true) fastest;
    ( List.filter (fun s -> slice s < seconds && kept.(slice s)) ok,
      float_of_int (List.length fastest),
      List.fold_left (fun acc k -> acc +. cpu.(k + 1) -. cpu.(k)) 0. fastest )
  end

let end_to_end_values w win ~setup_s ~recovery_s ~rss_mb =
  let attempted = List.length win.samples in
  let failed = List.length (List.filter (fun s -> not s.ok) win.samples) in
  let kept, seconds, cpu_us = steady w win in
  let lat pred =
    sorted_array
      (List.filter_map (fun s -> if pred s then Some (latency_ms s) else None) kept)
  in
  let all = lat (fun _ -> true) in
  let reads = lat (fun s -> s.cls.W.c_kind = W.Read) in
  let writes = lat (fun s -> s.cls.W.c_kind = W.Write) in
  let n = float_of_int (List.length kept) in
  [ ("setup_s", Some setup_s);
    ("throughput_sps", Some (n /. seconds));
    ("latency_p50_ms", percentile all 0.5);
    ("latency_p99_ms", percentile all 0.99);
    ("read_p50_ms", percentile reads 0.5);
    ("read_p99_ms", percentile reads 0.99);
    ("write_p50_ms", percentile writes 0.5);
    ("write_p99_ms", percentile writes 0.99);
    ("error_rate", Some (float_of_int failed /. float_of_int (max 1 attempted)));
    ("server_cpu_us_per_stmt", Some (cpu_us /. Float.max 1. n));
    ("server_rss_mb", Some rss_mb);
    ("recovery_s", Some recovery_s) ]

let parse_us texts =
  let texts = List.map snd (List.sort compare texts) in
  let texts = List.filteri (fun i _ -> i < parse_texts_wanted) texts in
  let pass () =
    let t0 = now () in
    List.iter (fun s -> ignore (Tip_sql.Parser.parse s)) texts;
    (now () -. t0) *. 1e6 /. float_of_int (max 1 (List.length texts))
  in
  median (List.init 3 (fun _ -> pass ()))

(* The per-layer split of a traced window. Server-side terms are
   counter deltas over the window divided by the statements it served;
   the residual is what the client saw that no layer accounts for. *)
let layer_values w win conns (b, a) =
  let d name = metric a name -. metric b name in
  let dw cls =
    let n1, ms1 = wait a cls and n0, ms0 = wait b cls in
    (n1 -. n0, (ms1 -. ms0) *. 1e3)
  in
  let n = Float.max 1. (d "server_statements_total") in
  let ratio x y = if y > 0. then x /. y else 0. in
  let _, lock_us = dw "DbLock" and _, write_us = dw "ClientWrite" in
  let fsyncs, fsync_us = dw "WalFsync" and _, append_us = dw "WalAppend" in
  let checkpoints, checkpoint_us = dw "Checkpoint" in
  let engine_us = d "engine_statement_ns_sum" /. 1e3 /. n in
  let lock_us = lock_us /. n and respond_us = write_us /. n in
  let session_us = (d "server_statement_ns_sum" /. 1e3 /. n) -. engine_us -. lock_us in
  let rtt_us =
    median (List.concat_map (fun c -> List.map (fun (t0, t1) -> (t1 -. t0) *. 1e6) c.probes) conns)
  in
  let ok = List.filter (fun s -> s.ok) win.samples in
  (* from the send: generator lateness is not a server layer *)
  let mean_us sel = mean (List.map (fun s -> (s.done_ -. s.sent) *. 1e6) (List.filter sel ok)) in
  let client_us = mean_us (fun _ -> true) in
  let residual = client_us -. (rtt_us +. session_us +. lock_us +. engine_us +. respond_us) in
  (* A positive residual is a layer the split misses; a negative one is
     time charged to two layers. *)
  if Float.abs residual > 0.2 *. client_us then
    Printf.printf "  FLAG bench.residual_us: %.1f us of %.1f us mean client latency %s\n"
      residual client_us
      (if residual > 0. then "is unexplained" else "is counted twice");
  let queries = d "exec_queries_total" and commits = d "wal_commits_total" in
  [ ("trace_overhead_pct",
     Some ((mean_us (fun s -> s.traced) /. mean_us (fun s -> not s.traced) -. 1.) *. 100.));
    ("remote.rtt_us", Some rtt_us);
    ("server.respond_us", Some respond_us);
    ("server.session_us", Some session_us);
    ("sql.parse_us", Some (parse_us (List.concat_map (fun c -> c.texts) conns)));
    ("server.lock_wait_us", Some lock_us);
    ("engine.stmt_us", Some engine_us);
    ("engine.exec_us", Some (engine_us -. ((fsync_us +. append_us +. checkpoint_us) /. n)));
    ("executor.rows_scanned_per_stmt", Some (d "exec_rows_scanned_total" /. n));
    ("executor.parallel_share", Some (ratio (d "exec_parallel_subtrees_total") queries));
    ("executor.morsels_per_query", Some (ratio (d "exec_morsels_total") queries));
    ("storage.btree_probes_per_stmt", Some (d "btree_probes_total" /. n));
    ("storage.interval_probes_per_stmt", Some (d "interval_probes_total" /. n));
    ("storage.wal_fsync_us", Some (ratio fsync_us fsyncs));
    ("storage.fsyncs_per_commit", Some (ratio (d "wal_fsyncs_total") commits));
    ("storage.wal_bytes_per_commit", Some (ratio (d "wal_bytes_total") commits));
    ("storage.wal_records", Some (d "wal_appends_total"));
    ("storage.checkpoints", Some checkpoints);
    ("storage.checkpoint_ms", Some (ratio checkpoint_us checkpoints /. 1e3));
    ("bench.residual_us", Some residual);
    ("gen.lag_p99_ms", percentile (lateness_ms win) 0.99);
    ("gen.cpu_pct", Some win.gen_cpu_pct) ]
  @ List.map
      (fun c ->
        let n1, ms1 = fingerprint a c.W.c_marker and n0, ms0 = fingerprint b c.W.c_marker in
        ((class_metric c).name, Some (ratio (ms1 -. ms0) (n1 -. n0))))
      (W.classes w)

let write_chrome_trace path win conns =
  let us t = Json.Num (Float.round ((t -. win.start) *. 1e7) /. 10.) in
  let event name tid t0 t1 args =
    Json.Obj
      ([ ("name", Json.Str name); ("ph", Json.Str "X"); ("pid", Json.Num 1.);
         ("tid", Json.Num (float_of_int tid)); ("ts", us t0);
         ("dur", Json.Num (Float.round ((t1 -. t0) *. 1e7) /. 10.)) ]
      @ args)
  in
  let stmt s =
    event s.cls.W.c_name s.conn s.sent s.done_
      [ ("cat", Json.Str "statement");
        ("args", Json.Obj [ ("due_us", us s.due); ("ok", Json.Bool s.ok) ]) ]
  in
  let probes c =
    List.map (fun (t0, t1) -> event "L probe" c.idx t0 t1 [ ("cat", Json.Str "probe") ]) c.probes
  in
  let events =
    List.map stmt (List.filter (fun s -> s.traced) win.samples) @ List.concat_map probes conns
  in
  let oc = open_out path in
  output_string oc (Json.to_string (Json.Obj [ ("traceEvents", Json.List events) ]));
  close_out oc

(* --- One workload run ------------------------------------------------------------ *)

type run = {
  workload : W.t;
  trace : bool;
  values : (string * float option) list;  (** every metric name, None = not reported *)
  attempted : int;
  failed : int;
  checks_failed : int;
  valid : bool;
  invalid_reason : string;
  meta : (string * Json.t) list;
}

let run_workload opts w ~trace =
  let nproc = Domain.recommended_domain_count () in
  let conn_count = List.length w.W.streams in
  if conn_count > min 2 nproc then begin
    Printf.eprintf "tipbench: %s needs %d connections; at most min(2, nproc=%d) are allowed\n"
      w.W.name conn_count nproc;
    exit 2
  end;
  let dir = Filename.concat work_dir (Printf.sprintf "%s-%d" w.W.name opts.seed) in
  Proc.rm_rf dir;
  Proc.mkdir_p dir;
  let snapshot = Filename.concat dir "data.snapshot" and db_dir = Filename.concat dir "db" in
  let log = Filename.concat dir "server.log" in
  let args = W.server_args w ~snapshot ~dir:db_dir in
  let db = W.build w ~seed:opts.seed ~snapshot ~dir:db_dir in
  let srv, r0, setup_s = setup opts ~args ~log in
  List.iter (fun sql -> ignore (Remote.execute r0 sql)) (W.prepare_sql w);
  let conns =
    List.mapi
      (fun idx stream ->
        { idx;
          remote = (if idx = 0 then r0 else connect srv.Proc.port);
          stream;
          rng = Random.State.make [| opts.seed; idx |];
          seq = 0;
          acked = Hashtbl.create 8;
          samples = [];
          probes = [];
          texts = [] })
      w.W.streams
  in
  let answers_failed = answer_checks w ~seed:opts.seed ~db ~remote:r0 in
  ignore (run_phase conns ~seconds:opts.warmup ~record:false ~trace:false);
  let win = measure_window opts w srv conns ~trace in
  let rss_mb = Proc.status_kb srv.Proc.pid "VmHWM" /. 1024. in
  let pool_size =
    Option.value ~default:0. (List.assoc_opt "tip_pool_size" (parse_metrics (Remote.metrics r0)))
  in
  let bal = acked conns "acct_update" and tagged = acked conns "insert" in
  let window_failed = count_checks r0 ~what:"after the window" ~bal ~tagged in
  List.iter (fun c -> if c.idx > 0 then Remote.close c.remote) conns;
  let recovery_s, restart_failed = crash_restarts opts w ~args ~log (srv, r0) ~bal ~tagged in
  let fs = Proc.filesystem dir in
  Proc.rm_rf dir;
  let values =
    end_to_end_values w win ~setup_s ~recovery_s ~rss_mb
    @ match win.counters with Some c -> layer_values w win conns c | None -> []
  in
  if trace then
    write_chrome_trace
      (Filename.concat work_dir (Printf.sprintf "trace-%s-%d.json" w.W.name opts.seed))
      win conns;
  (* A generator that saturates its core or falls behind its schedule
     measures itself, not the server. *)
  let lag_p50 = median_of (lateness_ms win) in
  let invalid_reason =
    if win.gen_cpu_pct > 90. then Printf.sprintf "generator used %.0f%% of a core" win.gen_cpu_pct
    else if lag_p50 > 1. then Printf.sprintf "generator median lateness %.2f ms" lag_p50
    else ""
  in
  let attempted = List.length win.samples in
  { workload = w;
    trace;
    values;
    attempted;
    failed = attempted - List.length (List.filter (fun s -> s.ok) win.samples);
    checks_failed = answers_failed + window_failed + restart_failed;
    valid = invalid_reason = "";
    invalid_reason;
    meta =
      [ ("seed", Json.Num (float_of_int opts.seed));
        ("nproc", Json.Num (float_of_int nproc));
        ("connections", Json.Num (float_of_int conn_count));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("git", Json.Str (Proc.git_head ()));
        ("kernel", Json.Str (Proc.kernel ()));
        ("work_fs", Json.Str fs);
        ("pool_size", Json.Num pool_size);
        ("warmup_s", Json.Num opts.warmup);
        ("window_s", Json.Num opts.seconds);
        ("gen_cpu_pct", Json.Num win.gen_cpu_pct);
        ("gen_lag_p50_ms", Json.Num lag_p50) ] }

(* --- Reporting ------------------------------------------------------------------ *)

(* Names printed so far: the smoke run asserts every metric appears. *)
let printed : (string, unit) Hashtbl.t = Hashtbl.create 64

let specs_of r =
  end_to_end @ if r.trace then per_layer @ List.map class_metric (W.classes r.workload) else []

let print_run r =
  Printf.printf "tipbench %s seed=%s trace=%s valid=%b%s checks_failed=%d attempted=%d failed=%d\n"
    r.workload.W.name
    (Json.to_string (List.assoc "seed" r.meta))
    (if r.trace then "on" else "off")
    r.valid
    (if r.valid then "" else " (" ^ r.invalid_reason ^ ")")
    r.checks_failed r.attempted r.failed;
  List.iter
    (fun s ->
      Hashtbl.replace printed s.name ();
      match List.assoc_opt s.name r.values with
      | Some (Some v) -> Printf.printf "  %-34s %16.4f %s\n" s.name v s.unit_
      | Some None | None ->
        Printf.printf "  %-34s %16s %s (not reported: fewer than 10 samples beyond it)\n"
          s.name "-" s.unit_)
    (specs_of r);
  print_newline ()

let metrics_json r ~prefix specs =
  List.filter_map
    (fun s ->
      match List.assoc_opt s.name r.values with
      | Some (Some v) ->
        Some (prefix ^ s.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str s.unit_) ])
      | _ -> None)
    specs

let run_json opts r =
  Json.Obj
    [ ("workload", Json.Str r.workload.W.name);
      ("set", Json.Str opts.set_label);
      ("trace", Json.Bool r.trace);
      ("valid", Json.Bool r.valid);
      ("invalid_reason", Json.Str r.invalid_reason);
      ("checks_failed", Json.Num (float_of_int r.checks_failed));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("meta", Json.Obj r.meta);
      ("metrics", Json.Obj (metrics_json r ~prefix:"" (specs_of r))) ]

(* The result line holds the metrics BENCHMARK.json lists: end-to-end
   ones for an untraced run, per-layer ones for a traced run. With one
   run they carry their plain names; with several each is prefixed by
   its workload. *)
let result_line runs =
  let single = List.length runs = 1 in
  let sum f = Json.Num (float_of_int (List.fold_left (fun n r -> n + f r) 0 runs)) in
  Json.Obj
    [ ("correct", Json.Bool (List.for_all (fun r -> r.checks_failed = 0) runs));
      ("attempted", sum (fun r -> r.attempted));
      ("failed", sum (fun r -> r.failed));
      ("metrics",
       Json.Obj
         (List.concat_map
            (fun r ->
              metrics_json r
                ~prefix:(if single then "" else r.workload.W.name ^ ".")
                (List.filter (fun s -> s.listed) (if r.trace then per_layer else end_to_end)))
            runs)) ]

(* --- compare -------------------------------------------------------------------- *)

(* FILE or FILE#SET: the untraced, valid runs of a run file, as
   (workload, metric values). *)
let load_runs arg =
  let file, set =
    match String.index_opt arg '#' with
    | Some i -> (String.sub arg 0 i, Some (String.sub arg (i + 1) (String.length arg - i - 1)))
    | None -> (arg, None)
  in
  let runs =
    match Json.member "runs" (Json.parse (Proc.read_file file)) with
    | Some (Json.List l) -> l
    | _ -> failwith (file ^ ": no \"runs\" list")
  in
  List.filter_map
    (fun r ->
      let str k = Option.bind (Json.member k r) Json.to_str in
      let untraced = Json.member "trace" r = Some (Json.Bool false) in
      let valid = Json.member "valid" r = Some (Json.Bool true) in
      let in_set = match set with None -> true | Some s -> str "set" = Some s in
      match str "workload", Json.member "metrics" r with
      | Some w, Some (Json.Obj ms) when untraced && valid && in_set ->
        let value v = Option.bind (Json.member "value" v) Json.to_num in
        Some (w, List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (value v)) ms)
      | _ -> None)
    runs

let summary values =
  let a = sorted_array values in
  let q1, q3 = quartiles a in
  (median_of a, q1, q3)

let rel_spread (m, q1, q3) = if q3 = q1 then 0. else (q3 -. q1) /. Float.abs m

(* A row regresses or improves only when the medians differ by more
   than both the bound and the old side's quartile spread; it is
   unresolved when either side's own spread is wider than the bound. *)
let classify s ((om, oq1, oq3) as old_) ((nm, _, _) as new_) =
  let diff = nm -. om in
  let rel = if om = 0. then if diff = 0. then 0. else infinity else diff /. Float.abs om in
  if rel_spread old_ > s.bound || rel_spread new_ > s.bound then "unresolved"
  else if Float.abs rel > s.bound && Float.abs diff > oq3 -. oq1 then
    if diff > 0. = (s.better = Lower) then "regressed" else "improved"
  else "same"

let compare_cmd args =
  let rec split acc = function
    | "--" :: rest -> Some (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> None
  in
  let old_args, new_args =
    match split [] args, args with
    | Some (o, n), _ -> (o, n)
    | None, [ o; n ] -> ([ o ], [ n ])
    | None, _ ->
      prerr_endline "usage: tipbench compare OLD.json[#SET]... -- NEW.json[#SET]...";
      exit 2
  in
  let old_runs = List.concat_map load_runs old_args in
  let new_runs = List.concat_map load_runs new_args in
  let workloads = List.sort_uniq compare (List.map fst (old_runs @ new_runs)) in
  let values runs w name =
    List.filter_map (fun (w', ms) -> if w' = w then List.assoc_opt name ms else None) runs
  in
  let fmt (m, q1, q3) = Printf.sprintf "%.4g [%.4g, %.4g]" m q1 q3 in
  Printf.printf "%-19s %-23s %-31s %-31s %8s %6s  %s\n" "workload" "metric"
    "old median [q1, q3]" "new median [q1, q3]" "change" "bound" "status";
  let regressed = ref false in
  List.iter
    (fun w ->
      List.iter
        (fun s ->
          match values old_runs w s.name, values new_runs w s.name with
          | [], _ | _, [] -> ()
          | ov, nv ->
            let ((om, _, _) as o) = summary ov and ((nm, _, _) as n) = summary nv in
            let status = classify s o n in
            if status = "regressed" then regressed := true;
            Printf.printf "%-19s %-23s %-31s %-31s %7.1f%% %5.0f%%  %s (%d vs %d runs)\n" w
              s.name (fmt o) (fmt n)
              (if om = 0. then 0. else (nm -. om) /. Float.abs om *. 100.)
              (s.bound *. 100.) status (List.length ov) (List.length nv))
        end_to_end)
    workloads;
  if !regressed then 1 else 0

(* --- Entry point ------------------------------------------------------------------ *)

let () =
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 130));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
  match Array.to_list Sys.argv with
  | _ :: "compare" :: args -> exit (compare_cmd args)
  | _ ->
    let workloads = ref [] and seed = ref 1 and seconds = ref 25. and trace = ref 0 in
    let json = ref None and set_label = ref "run" and smoke = ref false in
    let server = ref "_build/default/bin/tip_serve.exe" in
    let add_workload name =
      match W.find name with
      | Some w -> workloads := !workloads @ [ w ]
      | None -> raise (Arg.Bad ("unknown workload " ^ name))
    in
    Arg.parse
      [ ("--workload", Arg.String add_workload, "NAME  workload to run (repeatable; default all)");
        ("--seed", Arg.Set_int seed, "N  data and statement seed (default 1)");
        ("--seconds", Arg.Set_float seconds, "S  measured window per workload (default 25)");
        ("--trace", Arg.Set_int trace, "0|1  traced run: per-layer metrics (default 0)");
        ("--json", Arg.String (fun f -> json := Some f), "FILE  also write the runs to FILE");
        ("--set", Arg.Set_string set_label, "LABEL  set label recorded in the run file");
        ("--server", Arg.Set_string server, "EXE  tip_serve binary");
        ("--smoke", Arg.Set smoke, " 2 s per workload, traced and untraced, every check on") ]
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      "tipbench [options] | tipbench compare OLD.json[#SET]... -- NEW.json[#SET]...";
    if !seconds <= 0. then begin
      prerr_endline "tipbench: --seconds must be positive";
      exit 2
    end;
    if not (Sys.file_exists !server) then begin
      Printf.eprintf "tipbench: no server binary at %s (build bin/tip_serve.exe)\n" !server;
      exit 2
    end;
    let opts =
      { seed = !seed;
        seconds = (if !smoke then 2. else !seconds);
        warmup = (if !smoke then 0.5 else 3.);
        server = !server;
        set_label = !set_label }
    in
    Proc.mkdir_p work_dir;
    let workloads = if !workloads = [] then W.all else !workloads in
    let traces = if !smoke then [ false; true ] else [ !trace = 1 ] in
    let runs =
      List.concat_map
        (fun w ->
          List.map
            (fun trace ->
              let r = run_workload opts w ~trace in
              print_run r;
              r)
            traces)
        workloads
    in
    Option.iter
      (fun f ->
        Out_channel.with_open_text f (fun oc ->
            output_string oc
              (Json.to_string
                 (Json.Obj
                    [ ("format", Json.Str "tipbench-runs-1");
                      ("runs", Json.List (List.map (run_json opts) runs)) ]));
            output_char oc '\n'))
      !json;
    let missing =
      List.filter (fun s -> not (Hashtbl.mem printed s.name)) (List.concat_map specs_of runs)
    in
    List.iter (fun s -> Printf.printf "SMOKE: metric %s was not printed\n" s.name) missing;
    print_endline (Json.to_string (result_line runs));
    if List.exists (fun r -> r.checks_failed > 0) runs || (!smoke && missing <> []) then exit 1
