(* The process's domain budget and its host domains.

   The process runs at most [size ()] domains. Slot 0 is the caller's
   own domain; slots 1 .. size () - 1 are host domains, spawned on first
   use and never torn down. A host starts the jobs it is handed on its
   own thread (the server's session threads). Domains are not spawned
   ahead of need: an extra, idle domain is not free, since every minor
   collection stops all domains. *)

let max_size = 64

let clamp n = if n < 1 then 1 else if n > max_size then max_size else n

module Metrics = Tip_obs.Metrics

let resolve_size ~env ~recommended =
  match env with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> clamp n
    | Some _ | None -> clamp recommended)
  | None -> clamp recommended

let override : int option ref = ref None

let size () =
  match !override with
  | Some n -> n
  | None ->
    resolve_size
      ~env:(Sys.getenv_opt "TIP_PARALLEL")
      ~recommended:(Domain.recommended_domain_count ())
let set_size n = override := Some (clamp n)

type host = {
  h_lock : Mutex.t;
  h_ready : Condition.t;
  h_jobs : (unit -> unit) Queue.t;
}

let hosts : host option array = Array.make max_size None
let hosts_lock = Mutex.create ()

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
      ignore (Domain.spawn (fun () -> host_loop h) : unit Domain.t);
      hosts.(slot) <- Some h;
      h
  in
  Mutex.unlock hosts_lock;
  h

let log_src = Logs.Src.create "tip.domains" ~doc:"TIP session domains"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_thread_crashes =
  Metrics.counter "thread_crashes_total"
    ~help:"Jobs lost to an exception on a host domain"

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
