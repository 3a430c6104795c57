(* Spans and the one table of live sessions (DESIGN.md §9, §16).

   The table is an immutable map from thread id to session behind one
   atomic: registering (once per connection) swaps in a new map, and
   finding the calling thread's session (once per span) is a lookup
   with no lock. A session's mutable fields are written by its own
   thread and read racily by the sampler and tip_stat_activity; a stale
   read costs one mislabelled monitoring row, never a wrong answer. *)

module Deadline = Tip_core.Deadline

type kind =
  | Statement
  | Engine
  | Plan
  | Execute
  | DbLock
  | WalFsync
  | WalAppend
  | ArchiveSeal
  | ReplicaApply
  | ClientRead
  | ClientWrite
  | Checkpoint
  | Admission

let waits =
  [ DbLock; WalFsync; WalAppend; ArchiveSeal; ReplicaApply; ClientRead;
    ClientWrite; Checkpoint; Admission ]

let label = function
  | Statement -> "statement"
  | Engine -> "engine"
  | Plan -> "plan"
  | Execute -> "execute"
  | DbLock -> "DbLock"
  | WalFsync -> "WalFsync"
  | WalAppend -> "WalAppend"
  | ArchiveSeal -> "ArchiveSeal"
  | ReplicaApply -> "ReplicaApply"
  | ClientRead -> "ClientRead"
  | ClientWrite -> "ClientWrite"
  | Checkpoint -> "Checkpoint"
  | Admission -> "Admission"

(* Position in [waits]; -1 for a layer. *)
let wait_index k =
  let rec go i = function
    | [] -> -1
    | w :: ws -> if w = k then i else go (i + 1) ws
  in
  go 0 waits

type attr = Text of string | Chronon of Tip_core.Chronon.t

type activity = {
  state : string;
  query : string option;
  fingerprint : string option;
  since : float;
  token : Deadline.t option;
}

type t = {
  sp_kind : kind;
  sp_start_ns : int;
  mutable sp_elapsed_ns : int; (* -1 while open *)
  mutable sp_attrs : (string * attr) list; (* newest first *)
  mutable sp_children : t list; (* newest first *)
  sp_parent : t option;
  sp_session : session option; (* whose [current] this span moved *)
}

and session = {
  id : int;
  kind : string;
  owner : int;
  addr : string;
  fd : Unix.file_descr option;
  thread : int;
  mutable activity : activity;
  mutable current : t option;
}

(* --- the session table ----------------------------------------------- *)

module By_thread = Map.Make (Int)

let table : session By_thread.t Atomic.t = Atomic.make By_thread.empty

let rec update f =
  let m = Atomic.get table in
  if not (Atomic.compare_and_set table m (f m)) then update f

let idle ?fingerprint state =
  { state; query = None; fingerprint; since = Unix.gettimeofday ();
    token = None }

let register ?(owner = 0) ?(addr = "") ?fd ?fingerprint ~id ~kind () =
  let s =
    { id; kind; owner; addr; fd; thread = Thread.id (Thread.self ());
      activity = idle ?fingerprint "idle"; current = None }
  in
  update (By_thread.add s.thread s);
  s

let unregister s =
  update (fun m ->
      match By_thread.find_opt s.thread m with
      | Some s' when s' == s -> By_thread.remove s.thread m
      | _ -> m)

let sessions () = List.map snd (By_thread.bindings (Atomic.get table))

let begin_statement s ~query ~fingerprint ~token =
  s.activity <-
    { state = "active"; query = Some query; fingerprint = Some fingerprint;
      since = Unix.gettimeofday (); token = Some token }

let end_statement s ~in_transaction =
  s.activity <- idle (if in_transaction then "idle in transaction" else "idle")

let ash_state s =
  let rec innermost_wait = function
    | Some sp when wait_index sp.sp_kind >= 0 -> Some (label sp.sp_kind)
    | Some sp -> innermost_wait sp.sp_parent
    | None -> None
  in
  match innermost_wait s.current with
  | Some _ as w -> w
  | None -> if String.equal s.activity.state "active" then Some "Cpu" else None

(* --- what a closing span feeds --------------------------------------- *)

let counts = Array.init (List.length waits) (fun _ -> Atomic.make 0)
let totals = Array.init (List.length waits) (fun _ -> Atomic.make 0)

let m_server_statements =
  Metrics.counter "server_statements_total" ~help:"Statements served over the wire"

let h_server_statement_ns =
  Metrics.histogram "server_statement_ns"
    ~help:"Wire statement latency (ns), queueing on the db lock included"

let m_engine_statements =
  Metrics.counter "engine_statements_total"
    ~help:"Statements executed by the embedded engine"

let h_engine_statement_ns =
  Metrics.histogram "engine_statement_ns"
    ~help:"Per-statement latency (parse excluded), nanoseconds"

let feed kind ns =
  match kind with
  | Statement ->
    Metrics.incr m_server_statements;
    Metrics.observe h_server_statement_ns ns
  | Engine ->
    Metrics.incr m_engine_statements;
    Metrics.observe h_engine_statement_ns ns
  | Plan | Execute -> ()
  | _ ->
    let i = wait_index kind in
    Atomic.incr counts.(i);
    ignore (Atomic.fetch_and_add totals.(i) ns)

let wait_stats () =
  List.map
    (fun k ->
      let i = wait_index k in
      (k, Atomic.get counts.(i), Atomic.get totals.(i)))
    waits

(* --- spans ------------------------------------------------------------ *)

let self () =
  By_thread.find_opt (Thread.id (Thread.self ())) (Atomic.get table)

let start ?parent kind =
  let session = self () in
  let parent = match parent, session with None, Some s -> s.current | _ -> parent in
  let sp =
    { sp_kind = kind; sp_start_ns = Deadline.now_ns (); sp_elapsed_ns = -1;
      sp_attrs = []; sp_children = []; sp_parent = parent;
      sp_session = session }
  in
  (match parent with Some p -> p.sp_children <- sp :: p.sp_children | None -> ());
  (match session with Some s -> s.current <- Some sp | None -> ());
  sp

let stop sp =
  if sp.sp_elapsed_ns < 0 then begin
    let ns = max 0 (Deadline.now_ns () - sp.sp_start_ns) in
    sp.sp_elapsed_ns <- ns;
    (* spans nest, so stopping one also leaves any it still encloses
       (an exception skipped their stop) *)
    (match sp.sp_session with Some s -> s.current <- sp.sp_parent | None -> ());
    feed sp.sp_kind ns
  end

let with_ ?parent kind f =
  let sp = start ?parent kind in
  Fun.protect ~finally:(fun () -> stop sp) f

let kind sp = sp.sp_kind
let elapsed_ns sp = max 0 sp.sp_elapsed_ns
let children sp = List.rev sp.sp_children
let find_child sp kind = List.find_opt (fun c -> c.sp_kind = kind) (children sp)
let rec root sp = match sp.sp_parent with Some p -> root p | None -> sp
let annotate sp key value = sp.sp_attrs <- (key, value) :: sp.sp_attrs
let attrs sp = List.rev sp.sp_attrs

(* The attributes printed as [fmt key value], [sep]-separated. *)
let attrs_text ~sep fmt sp =
  let text = function Text s -> s | Chronon c -> Tip_core.Chronon.to_string c in
  String.concat sep (List.map (fun (k, v) -> fmt k (text v)) (attrs sp))

let render sp =
  let buf = Buffer.create 256 in
  let rec go indent sp =
    Printf.bprintf buf "%s%s (%.3f ms)" (String.make (indent * 2) ' ')
      (label sp.sp_kind)
      (float_of_int (elapsed_ns sp) /. 1e6);
    (match attrs_text ~sep:", " (Printf.sprintf "%s=%s") sp with
    | "" -> ()
    | kvs -> Printf.bprintf buf " [%s]" kvs);
    Buffer.add_char buf '\n';
    List.iter (go (indent + 1)) (children sp)
  in
  go 0 sp;
  Buffer.contents buf

(* --- Chrome trace-event export ---------------------------------------- *)

let to_chrome_json root =
  let buf = Buffer.create 512 in
  Buffer.add_char buf '[';
  let first = ref true in
  let rec go sp =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    Printf.bprintf buf
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f"
      (Log_sink.json_escape (label sp.sp_kind))
      (float_of_int (sp.sp_start_ns - root.sp_start_ns) /. 1e3)
      (float_of_int (elapsed_ns sp) /. 1e3);
    let arg k v =
      Printf.sprintf "\"%s\":\"%s\"" (Log_sink.json_escape k) (Log_sink.json_escape v)
    in
    (match attrs_text ~sep:"," arg sp with
    | "" -> ()
    | kvs -> Printf.bprintf buf ",\"args\":{%s}" kvs);
    Buffer.add_char buf '}';
    List.iter go (children sp)
  in
  go root;
  Buffer.add_string buf "]\n";
  Buffer.contents buf

let trace_dir_ref = ref (Sys.getenv_opt "TIP_TRACE_DIR")
let trace_dir () = !trace_dir_ref
let set_trace_dir d = trace_dir_ref := d
let export_seq = Atomic.make 0

let export_chrome root =
  match !trace_dir_ref with
  | None -> None
  | Some dir -> (
    let path =
      Filename.concat dir
        (Printf.sprintf "trace-%d-%d.json"
           (int_of_float (Unix.gettimeofday () *. 1e3))
           (Atomic.fetch_and_add export_seq 1))
    in
    try
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (to_chrome_json root));
      Some path
    with Sys_error _ | Unix.Unix_error _ -> None)
