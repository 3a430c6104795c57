(* Wait-event instrumentation and the ASH sampler (DESIGN.md §16).

   The hot path is [with_wait]: one hashtable probe to find the calling
   thread's session slot, two clock reads, two atomic adds. The slot's
   mutable fields are written by the owning thread and read racily by
   the sampler — a torn read costs one mislabelled monitoring sample,
   never a wrong query answer, so no fence is taken per wait. *)

type wait_class =
  | DbLock
  | WalFsync
  | WalAppend
  | ArchiveSeal
  | ReplicaApply
  | ClientRead
  | ClientWrite
  | Checkpoint
  | Admission

let all =
  [ DbLock; WalFsync; WalAppend; ArchiveSeal; ReplicaApply; ClientRead;
    ClientWrite; Checkpoint; Admission ]

let label = function
  | DbLock -> "DbLock"
  | WalFsync -> "WalFsync"
  | WalAppend -> "WalAppend"
  | ArchiveSeal -> "ArchiveSeal"
  | ReplicaApply -> "ReplicaApply"
  | ClientRead -> "ClientRead"
  | ClientWrite -> "ClientWrite"
  | Checkpoint -> "Checkpoint"
  | Admission -> "Admission"

let index = function
  | DbLock -> 0
  | WalFsync -> 1
  | WalAppend -> 2
  | ArchiveSeal -> 3
  | ReplicaApply -> 4
  | ClientRead -> 5
  | ClientWrite -> 6
  | Checkpoint -> 7
  | Admission -> 8

let n_classes = List.length all
let counts = Array.init n_classes (fun _ -> Atomic.make 0)
let totals = Array.init n_classes (fun _ -> Atomic.make 0)

type session = {
  ws_id : int;
  ws_kind : string;
  mutable ws_thread : int; (* Thread.id of the bound thread; -1 unbound *)
  mutable ws_query : string option;
  mutable ws_active : bool;
  mutable ws_wait : wait_class option;
}

(* Registration is per-connection, not per-statement: a plain mutex
   around the thread-id table is fine, and [with_wait] only takes it
   for the O(1) probe. *)
let sessions_lock = Mutex.create ()
let by_thread : (int, session) Hashtbl.t = Hashtbl.create 32

let locked f = Mutex.protect sessions_lock f

let register ~id ~kind =
  let s =
    { ws_id = id; ws_kind = kind; ws_thread = Thread.id (Thread.self ());
      ws_query = None; ws_active = false; ws_wait = None }
  in
  locked (fun () -> Hashtbl.replace by_thread s.ws_thread s);
  s

let unregister s =
  locked (fun () ->
      match Hashtbl.find_opt by_thread s.ws_thread with
      | Some s' when s' == s -> Hashtbl.remove by_thread s.ws_thread
      | _ -> ())

let set_query s q = s.ws_query <- q
let set_active s b = s.ws_active <- b
let session_count () = locked (fun () -> Hashtbl.length by_thread)

let self_session () =
  locked (fun () -> Hashtbl.find_opt by_thread (Thread.id (Thread.self ())))

let with_wait cls f =
  let slot = self_session () in
  let prev = match slot with Some s -> s.ws_wait | None -> None in
  (match slot with Some s -> s.ws_wait <- Some cls | None -> ());
  let t0 = Trace.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Trace.now_ns () - t0 in
      let i = index cls in
      Atomic.incr counts.(i);
      ignore (Atomic.fetch_and_add totals.(i) (max 0 dt));
      match slot with Some s -> s.ws_wait <- prev | None -> ())
    f

let stats () =
  List.map
    (fun c -> (c, Atomic.get counts.(index c), Atomic.get totals.(index c)))
    all

let reset_stats () =
  Array.iter (fun a -> Atomic.set a 0) counts;
  Array.iter (fun a -> Atomic.set a 0) totals

(* --- the active session history ------------------------------------- *)

type sample = {
  sa_seq : int;
  sa_at : float;
  sa_interval_ms : int;
  sa_session : int;
  sa_kind : string;
  sa_query : string option;
  sa_state : string;
}

let env_int name default floor =
  match Sys.getenv_opt name with
  | Some v -> (match int_of_string_opt v with Some n -> max floor n | None -> default)
  | None -> default

let interval = ref (env_int "TIP_ASH_INTERVAL_MS" 100 5)
let interval_ms () = !interval

let ring_lock = Mutex.create ()
let ring : sample option array ref = ref (Array.make (env_int "TIP_ASH_RING" 4096 1) None)
let ring_next = ref 0 (* next write slot *)
let ring_seq = ref 0

let ring_locked f = Mutex.protect ring_lock f

let ring_capacity () = ring_locked (fun () -> Array.length !ring)

let set_ring_capacity n =
  ring_locked (fun () ->
      ring := Array.make (max 1 n) None;
      ring_next := 0)

let clear_samples () =
  ring_locked (fun () ->
      Array.fill !ring 0 (Array.length !ring) None;
      ring_next := 0)

let push_sample sa =
  let r = !ring in
  r.(!ring_next) <- Some sa;
  ring_next := (!ring_next + 1) mod Array.length r

let samples () =
  ring_locked (fun () ->
      let r = !ring in
      let n = Array.length r in
      let out = ref [] in
      (* walk backwards from the newest slot so the result is oldest
         first once the accumulator reverses it *)
      for k = 0 to n - 1 do
        match r.((!ring_next - 1 - k + (2 * n)) mod n) with
        | Some sa -> out := sa :: !out
        | None -> ()
      done;
      !out)

let sample_now () =
  let watched =
    locked (fun () ->
        Hashtbl.fold
          (fun _ s acc ->
            if s.ws_active || s.ws_wait <> None then s :: acc else acc)
          by_thread [])
  in
  if watched <> [] then begin
    let at = Unix.gettimeofday () in
    let iv = !interval in
    ring_locked (fun () ->
        List.iter
          (fun s ->
            let state =
              match s.ws_wait with Some c -> label c | None -> "Cpu"
            in
            let seq = !ring_seq in
            incr ring_seq;
            push_sample
              { sa_seq = seq; sa_at = at; sa_interval_ms = iv;
                sa_session = s.ws_id; sa_kind = s.ws_kind;
                sa_query = s.ws_query; sa_state = state })
          watched)
  end

(* --- the sampler thread --------------------------------------------- *)

let ash_enabled =
  match Sys.getenv_opt "TIP_ASH" with
  | Some ("off" | "0" | "false" | "OFF") -> false
  | _ -> true

let sampler_lock = Mutex.create ()
let sampler : Thread.t option ref = ref None
let sampler_stop = Atomic.make false

let sampler_running () =
  Mutex.lock sampler_lock;
  let r = !sampler <> None in
  Mutex.unlock sampler_lock;
  r

let start_sampler () =
  if ash_enabled then begin
    Mutex.lock sampler_lock;
    if !sampler = None then begin
      Atomic.set sampler_stop false;
      sampler :=
        Some
          (Thread.create
             (fun () ->
               while not (Atomic.get sampler_stop) do
                 sample_now ();
                 Thread.delay (float_of_int !interval /. 1000.)
               done)
             ())
    end;
    Mutex.unlock sampler_lock
  end

let stop_sampler () =
  Mutex.lock sampler_lock;
  let t = !sampler in
  sampler := None;
  Atomic.set sampler_stop true;
  Mutex.unlock sampler_lock;
  Option.iter Thread.join t
