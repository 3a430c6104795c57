(* A lazily-initialized, reusable fixed-size domain pool.

   Workers block on a condition variable waiting for tasks; a batch
   ([run]) enqueues one closure per thunk, wakes the workers, and the
   calling domain drains the same queue so a pool of size [n] executes
   on exactly [n] domains (n-1 workers + the caller). Workers are
   spawned on demand up to [size () - 1] and never torn down — they hold
   no state between batches, and process exit reaps them.

   The statement is the unit of parallelism: a batch goes to the pool
   only while its statement is the only one executing. When sessions
   run statements side by side on their own domains, each runs its
   batches itself, so the cores are never oversubscribed. *)

let max_size = 64

let clamp n = if n < 1 then 1 else if n > max_size then max_size else n

module Metrics = Tip_obs.Metrics

let m_batches =
  Metrics.counter "pool_batches_total" ~help:"Task batches submitted to the pool"

let m_tasks =
  Metrics.counter "pool_tasks_total" ~help:"Thunks executed across all batches"

let g_pool_size =
  Metrics.gauge "pool_size" ~help:"Configured pool size (domains per batch)"

let g_pool_workers =
  Metrics.gauge "pool_workers" ~help:"Worker domains spawned so far"

let resolve_size ~env ~recommended =
  match env with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> clamp n
    | Some _ | None -> clamp recommended)
  | None -> clamp recommended

let default_size () =
  resolve_size
    ~env:(Sys.getenv_opt "TIP_PARALLEL")
    ~recommended:(Domain.recommended_domain_count ())

let override : int option ref = ref None

let size () = match !override with Some n -> n | None -> default_size ()
let set_size n = override := Some (clamp n)
let sequential () = size () <= 1

(* --- Statements executing -------------------------------------------- *)

let executing = Atomic.make 0

let with_statement f =
  Atomic.incr executing;
  Fun.protect ~finally:(fun () -> Atomic.decr executing) f

(* Zero counts as alone: executor calls made outside any statement. *)
let engaged () = size () > 1 && Atomic.get executing <= 1

(* --- The worker pool ------------------------------------------------- *)

let lock = Mutex.create ()
let have_work = Condition.create ()
let queue : (unit -> unit) Queue.t = Queue.create ()

(* Tasks are pre-wrapped and never raise. A worker takes a task only
   while at most one statement executes: once a second statement starts,
   the batch's caller finishes the queue alone, so the overlap with the
   newcomer lasts at most one morsel per worker. The next batch's
   broadcast wakes the workers again. A worker shares its domain with
   session threads, so it yields between tasks to any that are ready. *)
let rec worker_loop () =
  Mutex.lock lock;
  while Queue.is_empty queue || Atomic.get executing > 1 do
    Condition.wait have_work lock
  done;
  let task = Queue.pop queue in
  Mutex.unlock lock;
  task ();
  Thread.yield ();
  worker_loop ()

(* --- Domains ----------------------------------------------------------- *)

(* The process runs at most [size ()] domains. Slot 0 is the caller's
   own domain; slots 1 .. size () - 1 are host domains, spawned on first
   use and never torn down. Each host runs one pool worker thread and
   starts the jobs it is handed on its own thread (the server's session
   threads), so pool workers and sessions share the same domains: an
   extra, idle domain is not free, since every minor collection stops
   all domains. *)
type host = {
  h_lock : Mutex.t;
  h_ready : Condition.t;
  h_jobs : (unit -> unit) Queue.t;
}

let hosts : host option array = Array.make max_size None
let hosts_lock = Mutex.create ()
let spawned = ref 0 (* host domains spawned so far *)

(* Jobs are pre-wrapped and never raise. *)
let rec host_loop h =
  Mutex.lock h.h_lock;
  while Queue.is_empty h.h_jobs do
    Condition.wait h.h_ready h.h_lock
  done;
  let job = Queue.pop h.h_jobs in
  Mutex.unlock h.h_lock;
  job ();
  host_loop h

let host slot =
  Mutex.lock hosts_lock;
  let h =
    match hosts.(slot) with
    | Some h -> h
    | None ->
      let h =
        { h_lock = Mutex.create ();
          h_ready = Condition.create ();
          h_jobs = Queue.create () }
      in
      ignore
        (Domain.spawn (fun () ->
             ignore (Thread.create worker_loop ());
             host_loop h)
          : unit Domain.t);
      hosts.(slot) <- Some h;
      incr spawned;
      h
  in
  let n = !spawned in
  Mutex.unlock hosts_lock;
  Metrics.gauge_set g_pool_workers n;
  h

(* Any host's worker serves any batch, so [spawned >= wanted] is
   enough. *)
let ensure_workers wanted =
  if !spawned < wanted then
    for slot = 1 to wanted do
      ignore (host slot : host)
    done

let log_src = Logs.Src.create "tip.pool" ~doc:"TIP domain pool"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_thread_crashes =
  Metrics.counter "thread_crashes_total"
    ~help:"Jobs lost to an exception on a pool domain"

let on_domain ~slot ~on_error job =
  let guarded () =
    try
      if slot > 0 then Tip_storage.Failpoint.hit ~site:"pool.domain" ();
      job ()
    with e ->
      let msg = Printexc.to_string e in
      Log.err (fun m -> m "job on domain %d raised: %s" slot msg);
      Metrics.incr m_thread_crashes;
      Tip_obs.Events.record ~kind:"thread_crash"
        ~detail:(Printf.sprintf "domain %d: %s" slot msg);
      try on_error e with _ -> ()
  in
  if slot = 0 then guarded ()
  else begin
    let h = host slot in
    Mutex.lock h.h_lock;
    Queue.add guarded h.h_jobs;
    Condition.signal h.h_ready;
    Mutex.unlock h.h_lock
  end

(* --- Batches ---------------------------------------------------------- *)

let run_sequential thunks = List.map (fun t -> t ()) thunks

let run ?token thunks =
  let n = size () in
  Metrics.incr m_batches;
  Metrics.add m_tasks (List.length thunks);
  Metrics.gauge_set g_pool_size n;
  (* Once the statement token trips, still-queued tasks are skipped
     outright (recorded as cancelled, never executed), so a cancelled
     parallel subtree stops within the morsel currently running rather
     than finishing the whole batch. *)
  let abandoned () =
    match token with
    | None -> None
    | Some tok -> Tip_core.Deadline.cancelled tok
  in
  match thunks with
  | [] -> []
  | [ t ] -> [ t () ]
  | _ when n <= 1 || Atomic.get executing > 1 -> run_sequential thunks
  | _ ->
    ensure_workers (n - 1);
    let tasks = Array.of_list thunks in
    let len = Array.length tasks in
    let results = Array.make len None in
    let pending = ref len in
    let batch_done = Condition.create () in
    let job i () =
      let r =
        match abandoned () with
        | Some reason -> Error (Tip_core.Deadline.Cancelled reason)
        | None -> ( try Ok (tasks.(i) ()) with e -> Error e)
      in
      Mutex.lock lock;
      results.(i) <- Some r;
      decr pending;
      if !pending = 0 then Condition.broadcast batch_done;
      Mutex.unlock lock
    in
    Mutex.lock lock;
    for i = 0 to len - 1 do
      Queue.add (job i) queue
    done;
    Condition.broadcast have_work;
    (* The caller drains the queue alongside the workers, then waits for
       in-flight tasks to land. *)
    let rec drain () =
      if not (Queue.is_empty queue) then begin
        let task = Queue.pop queue in
        Mutex.unlock lock;
        task ();
        Mutex.lock lock;
        drain ()
      end
    in
    drain ();
    while !pending > 0 do
      Condition.wait batch_done lock
    done;
    Mutex.unlock lock;
    (* Re-raise the first failure in input order (Array.iter is
       left-to-right; List.init's evaluation order is not). *)
    Array.iter (function Some (Error e) -> raise e | _ -> ()) results;
    List.init len (fun i ->
        match results.(i) with Some (Ok v) -> v | _ -> assert false)
