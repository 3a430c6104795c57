(* The replica-side replication client: keeps a read-only database
   converged with a primary's WAL stream, through every failure the
   wire can produce.

   One background thread runs a connect / bootstrap / subscribe /
   stream loop:

   - Connect uses [Remote.connect] (single attempt per round) inside
     this module's own bounded-exponential-backoff-with-jitter loop, so
     a dead primary costs a capped, de-synchronized retry cadence
     instead of a tight spin or a thundering herd.

   - Bootstrap ([P]) fetches a consistent (generation, snapshot,
     offset) triple and swaps the snapshot's contents into the shared
     catalog under the database lock ([Catalog.assign]); the expensive
     parse happens outside the lock.

   - Streaming feeds raw WAL chunks to [Replica.feed] under the lock
     and acks every confirmed position upstream ([K <offset>
     <commits>]). Keepalives carry the primary's end-of-log offset, so
     the replica knows how far behind it is even when nothing is being
     shipped.

   Failure routing: a corrupt frame (bit flip, torn chunk) drops the
   connection and resumes from the confirmed offset — re-shipping the
   tail repairs it; a generation change ([E GEN_CHANGED], or a
   mismatched generation frame in-stream) forces a fresh snapshot
   bootstrap instead of diverging; an epoch fence ([E STALE_EPOCH], or
   a mismatched epoch in-stream) does the same — our history predates a
   promotion and may have diverged, so only a fresh snapshot under the
   new epoch is safe; a primary drain ([E SHUTDOWN]) or loss parks the
   client in reconnect-with-backoff while the replica keeps serving
   reads and reports growing staleness.

   Two HA additions (DESIGN.md §15): [start ?resume] lets a rejoining
   node (an old primary coming back with its recovered durable state)
   offer its local (generation, offset, epoch) as a subscription before
   falling back to a bootstrap — the primary's epoch fence decides
   whether that history is still usable; [promote] stops the follower
   loop at a commit boundary (whole batches only ever apply) and turns
   the database into a writable primary under a bumped epoch. *)

module Db = Tip_engine.Database
module Metrics = Tip_obs.Metrics
module Wait = Tip_obs.Wait
module Replica = Tip_storage.Replica
module Failpoint = Tip_storage.Failpoint

let log_src = Logs.Src.create "tip.replication" ~doc:"TIP replication client"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_reconnects =
  Metrics.counter "repl_reconnects_total"
    ~help:"Reconnections to the primary (backoff loop entries)"

let m_bootstraps =
  Metrics.counter "repl_client_bootstraps_total"
    ~help:"Snapshot bootstraps completed by this replica"

let m_stream_errors =
  Metrics.counter "repl_stream_errors_total"
    ~help:"Stream failures (corrupt frames, lost connections)"

let g_lag_bytes =
  Metrics.gauge "repl_lag_bytes" ~help:"Bytes behind the primary's WAL end"

let m_fence_rejections =
  Metrics.counter "ha_fence_rejections_total"
    ~help:"Times this client was fenced with STALE_EPOCH and re-bootstrapped"

type t = {
  host : string;
  port : int;
  db : Db.t;
  lock : Rwlock.t; (* the server's database lock; replay holds it exclusive *)
  mutable replica : Replica.t option; (* None until first bootstrap *)
  mutable state : string;
      (* "connecting" | "bootstrapping" | "subscribing" | "streaming"
         | "disconnected" | "promoted" | "stopped" *)
  mutable primary_epoch : int; (* newest epoch the primary has shown us *)
  mutable fenced : int; (* STALE_EPOCH rejections suffered *)
  mutable known_primary_offset : int;
  mutable caught_up_at : float; (* unix time last provably caught up *)
  mutable last_contact : float;
  mutable acked_commits : int;
  mutable reconnects : int;
  mutable bootstraps : int;
  mutable conn : Remote.t option;
  mutable stopping : bool;
  mutable thread : Thread.t option;
}

let with_lock t f = Rwlock.with_exclusive t.lock f

(* --- Observability ------------------------------------------------------ *)

let lag_bytes t =
  match t.replica with
  | None -> t.known_primary_offset
  | Some r -> Stdlib.max 0 (t.known_primary_offset - Replica.applied_offset r)

let lag_commits_applied t =
  match t.replica with None -> 0 | Some r -> Replica.applied_commits r

(* Seconds since this replica was last provably caught up with its
   primary. Near zero while streaming keeps confirming parity; grows
   without bound once the primary is lost — exactly the number a
   lag-bounded read needs. *)
let staleness_seconds t = Unix.gettimeofday () -. t.caught_up_at

let state t = t.state
let generation t = match t.replica with None -> 0 | Some r -> Replica.generation r
let applied_offset t =
  match t.replica with None -> 0 | Some r -> Replica.applied_offset r
let reconnects t = t.reconnects
let bootstraps t = t.bootstraps
let epoch t = t.primary_epoch
let fence_rejections t = t.fenced

let replication_rows t () =
  let module Value = Tip_storage.Value in
  if t.stopping then [] (* a stopped client drops out of the view *)
  else
  [ [| Value.Str (Printf.sprintf "%s:%d" t.host t.port);
       Value.Str "primary";
       Value.Str t.state;
       Value.Int (generation t);
       Value.Int t.known_primary_offset;
       Value.Int (applied_offset t);
       Value.Int (lag_bytes t);
       Value.Int (lag_commits_applied t);
       Value.Float (staleness_seconds t);
       Value.Int t.primary_epoch;
       (* a replica normally has no archive of its own *)
       (match Db.archive_generation t.db with
       | Some g -> Value.Int g
       | None -> Value.Null) |] ]

(* --- Wire helpers ------------------------------------------------------- *)

let send_line oc request =
  output_string oc (Protocol.encode_request request);
  output_char oc '\n';
  flush oc

let ack t oc =
  match t.replica with
  | None -> ()
  | Some r ->
    let commits = Replica.applied_commits r - t.acked_commits in
    t.acked_commits <- Replica.applied_commits r;
    send_line oc
      (Protocol.Ack { offset = Replica.applied_offset r; commits })

let note_contact t =
  t.last_contact <- Unix.gettimeofday ();
  Metrics.gauge_set g_lag_bytes (lag_bytes t);
  match t.replica with
  | Some r when Replica.applied_offset r >= t.known_primary_offset ->
    t.caught_up_at <- Unix.gettimeofday ()
  | _ -> ()

(* --- Bootstrap ---------------------------------------------------------- *)

(* One [P] exchange: [M snapshot <gen> <offset> <epoch>] then a single
   chunk of snapshot text. Parses outside the lock, swaps contents
   under it. Pre-HA primaries send a two-field header (epoch 0). *)
let bootstrap t ic oc =
  t.state <- "bootstrapping";
  Failpoint.hit ~site:"repl.bootstrap" ();
  send_line oc Protocol.Snapshot_request;
  match Protocol.read_stream_item ic with
  | `Err msg -> Error msg
  | `Chunk _ -> Error "protocol: chunk before snapshot header"
  | `Info info -> (
    let header =
      match String.split_on_char ' ' info with
      | [ "snapshot"; gen; offset ] -> (
        match (int_of_string_opt gen, int_of_string_opt offset) with
        | Some gen, Some offset -> Some (gen, offset, 0)
        | _ -> None)
      | [ "snapshot"; gen; offset; epoch ] -> (
        match
          ( int_of_string_opt gen,
            int_of_string_opt offset,
            int_of_string_opt epoch )
        with
        | Some gen, Some offset, Some epoch -> Some (gen, offset, epoch)
        | _ -> None)
      | _ -> None
    in
    match header with
    | None -> Error ("protocol: bad snapshot header " ^ info)
    | Some (gen, offset, epoch) -> (
      match Protocol.read_stream_item ic with
      | `Chunk text -> (
        match Tip_storage.Persist.load_string text with
        | exception Tip_storage.Persist.Format_error msg ->
          Error ("bad snapshot: " ^ msg)
        | loaded, _meta ->
          with_lock t (fun () ->
              Tip_storage.Catalog.assign (Db.catalog t.db) ~from:loaded;
              (match t.replica with
              | None ->
                t.replica <-
                  Some
                    (Replica.create (Db.catalog t.db) ~generation:gen ~epoch
                       ~offset)
              | Some r -> Replica.rebase r ~generation:gen ~epoch ~offset);
              t.primary_epoch <- epoch;
              t.known_primary_offset <- offset;
              t.acked_commits <-
                (match t.replica with
                | Some r -> Replica.applied_commits r
                | None -> 0));
          t.bootstraps <- t.bootstraps + 1;
          Metrics.incr m_bootstraps;
          note_contact t;
          t.caught_up_at <- Unix.gettimeofday ();
          Log.info (fun m ->
              m "bootstrapped from %s:%d: gen %d, offset %d, epoch %d (%d \
                 bytes of snapshot)"
                t.host t.port gen offset epoch (String.length text));
          Ok ())
      | `Info i -> Error ("protocol: expected snapshot chunk, got " ^ i)
      | `Err msg -> Error msg))

(* --- Streaming ---------------------------------------------------------- *)

(* Classifies why the stream ended. [`Retry] keeps the confirmed state
   and resubscribes from the confirmed offset; [`Rebootstrap] discards
   it for a fresh snapshot; [`Stop] obeys [stop]. *)
let stream t ic oc r =
  (* "streaming" is claimed only once the primary answers the
     subscription (first chunk or keepalive, at most 0.5s away): a
     rejoining ex-primary's resumed offer may be about to be fenced,
     and /readyz must not vouch for a stream that was never accepted *)
  t.state <- "subscribing";
  send_line oc
    (Protocol.Wal_subscribe
       { gen = Replica.generation r;
         offset = Replica.applied_offset r;
         epoch = Replica.epoch r });
  (* where the next chunk lands in the primary's log: confirmed offset
     plus everything buffered but not yet confirmed *)
  let recv = ref (Replica.applied_offset r) in
  let rec loop () =
    if t.stopping then `Stop
    else begin
      match Protocol.read_stream_item ic with
      | `Chunk bytes -> (
        t.state <- "streaming";
        recv := !recv + String.length bytes;
        t.known_primary_offset <- Stdlib.max t.known_primary_offset !recv;
        match
          Wait.with_wait Wait.ReplicaApply (fun () ->
              with_lock t (fun () -> Replica.feed r bytes))
        with
        | Ok () ->
          (try ack t oc with Sys_error _ | Unix.Unix_error _ -> ());
          note_contact t;
          loop ()
        | Error (Replica.Stream_corrupt msg) ->
          Metrics.incr m_stream_errors;
          Log.warn (fun m -> m "stream corrupt: %s; resyncing" msg);
          `Retry
        | Error (Replica.Apply_failed msg) ->
          Metrics.incr m_stream_errors;
          Log.warn (fun m -> m "apply failed: %s; re-bootstrapping" msg);
          `Rebootstrap)
      | `Info info ->
        t.state <- "streaming";
        (match String.split_on_char ' ' info with
        | [ "keepalive"; off ] -> (
          match int_of_string_opt off with
          | Some off ->
            t.known_primary_offset <- Stdlib.max t.known_primary_offset off;
            (try ack t oc with Sys_error _ | Unix.Unix_error _ -> ())
          | None -> ())
        | _ -> ());
        note_contact t;
        loop ()
      | `Err msg -> (
        Metrics.incr m_stream_errors;
        let has_prefix p =
          String.length msg >= String.length p
          && String.equal (String.sub msg 0 (String.length p)) p
        in
        match Remote.error_code msg with
        | Remote.Shutdown ->
          Log.info (fun m -> m "primary draining: %s" msg);
          `Retry
        | Remote.Stale_epoch ->
          (* fenced: a promotion happened and our history may have
             diverged past it — only a fresh snapshot under the new
             epoch is safe (the demotion path for a rejoining
             ex-primary) *)
          t.fenced <- t.fenced + 1;
          Metrics.incr m_fence_rejections;
          Tip_obs.Events.record ~kind:"failover"
            ~detail:
              (Printf.sprintf
                 "fenced by %s:%d at epoch %d; demoting to a fresh bootstrap"
                 t.host t.port t.primary_epoch);
          Log.warn (fun m -> m "fenced by the primary: %s" msg);
          `Rebootstrap
        | _ when has_prefix "GEN_CHANGED:" ->
          Log.info (fun m -> m "%s" msg);
          `Rebootstrap
        | _ ->
          Log.warn (fun m -> m "stream error: %s" msg);
          `Retry)
      | exception (End_of_file | Sys_error _ | Failure _) ->
        Metrics.incr m_stream_errors;
        `Retry
      | exception Unix.Unix_error _ ->
        Metrics.incr m_stream_errors;
        `Retry
    end
  in
  let outcome = loop () in
  (match t.replica with Some r -> Replica.reset_stream r | None -> ());
  outcome

(* --- The connection loop ------------------------------------------------ *)

let max_backoff = 2.0

let run t =
  (* the follower is a session too: its apply waits show up in the ASH
     under kind "replication" *)
  let wait_slot = Wait.register ~id:(-1) ~kind:"replication" in
  Wait.set_query wait_slot (Some (Printf.sprintf "replica of %s:%d" t.host t.port));
  let rec round delay =
    if not t.stopping then begin
      t.state <- (if t.replica = None then "connecting" else "disconnected");
      match
        (* [deadline] doubles as the socket receive timeout: the primary
           keepalives every 0.5s, so five silent seconds mean the link
           is dead even if no FIN ever arrives — bound the blocking read
           instead of trusting the network to say goodbye *)
        Remote.connect ~host:t.host ~attempts:1 ~deadline:5.0 ~port:t.port ()
      with
      | exception Remote.Remote_error _ -> backoff delay
      | conn ->
        t.conn <- Some conn;
        t.reconnects <- t.reconnects + 1;
        Metrics.incr m_reconnects;
        let ic, oc = Remote.channels conn in
        let outcome =
          (* everything here talks to a socket another thread may close
             under us (inject_disconnect, stop): any I/O failure is a
             plain retry, never a dead client thread *)
          try
            match
              (match t.replica with
              | None -> bootstrap t ic oc
              | Some _ -> Ok ())
            with
            | Error msg ->
              Log.warn (fun m -> m "bootstrap failed: %s" msg);
              `Retry
            | Ok () -> (
              match t.replica with
              | None -> `Retry
              | Some r -> (
                match stream t ic oc r with
                | `Rebootstrap ->
                  (* the confirmed state no longer matches the primary's
                     log; a fresh snapshot replaces it next round *)
                  t.replica <- None;
                  `Retry_now
                | (`Retry | `Stop) as o -> o))
          with
          | End_of_file | Sys_error _ | Failure _ -> `Retry
          (* the 5s receive timeout surfaces as [Sys_blocked_io] from a
             read stuck inside [bootstrap] on a slow snapshot *)
          | Sys_blocked_io -> `Retry
          | Unix.Unix_error _ -> `Retry
          | Remote.Remote_error _ -> `Retry
        in
        t.conn <- None;
        (try Remote.close conn with _ -> ());
        (match outcome with
        | `Stop -> ()
        | `Retry_now -> round 0.05
        | `Retry -> backoff delay)
    end
  and backoff delay =
    if not t.stopping then begin
      t.state <- "disconnected";
      (* bounded exponential backoff with jitter, Remote.connect's
         semantics stretched across whole sessions *)
      let pause = delay +. Random.float (delay /. 2.) in
      let rec sleep remaining =
        if remaining > 0. && not t.stopping then begin
          Thread.delay (Float.min 0.05 remaining);
          sleep (remaining -. 0.05)
        end
      in
      sleep pause;
      round (Float.min max_backoff (delay *. 2.))
    end
  in
  round 0.05;
  Wait.unregister wait_slot;
  t.state <- "stopped"

(* --- Lifecycle ---------------------------------------------------------- *)

let start ?lock ?resume ~host ~port db =
  let t =
    { host;
      port;
      db;
      lock = (match lock with Some l -> l | None -> Rwlock.create ());
      replica = None;
      state = "connecting";
      primary_epoch = 0;
      fenced = 0;
      known_primary_offset = 0;
      caught_up_at = Unix.gettimeofday ();
      last_contact = Unix.gettimeofday ();
      acked_commits = 0;
      reconnects = 0;
      bootstraps = 0;
      conn = None;
      stopping = false;
      thread = None }
  in
  (* A rejoining node (an ex-primary restarted with its durable state
     recovered) offers its local position as a subscription instead of
     bootstrapping blind: if the primary accepts (same generation and
     epoch) the existing state is reused; a GEN_CHANGED or STALE_EPOCH
     rejection falls back to a fresh bootstrap — the fence-then-demote
     path. *)
  (match resume with
  | Some (gen, offset, epoch) ->
    t.replica <-
      Some (Replica.create (Db.catalog db) ~generation:gen ~epoch ~offset);
    t.primary_epoch <- epoch;
    t.known_primary_offset <- offset;
    Log.info (fun m ->
        m "rejoining %s:%d from local state: gen %d, offset %d, epoch %d" host
          port gen offset epoch)
  | None -> ());
  (* The upstream-facing view, same name and column shape as the
     primary's subscriber view: one row describing our primary. The
     registry is process-global, so chain onto any provider already
     registered (a primary's subscriber view, an earlier client) —
     the union is the process's replication links. *)
  let prev = Tip_engine.Vtab.find "tip_stat_replication" in
  Tip_engine.Vtab.register
    { Tip_engine.Vtab.vt_name = "tip_stat_replication";
      vt_cols =
        [| "peer_addr"; "role"; "state"; "generation"; "wal_bytes";
           "acked_bytes"; "lag_bytes"; "acked_commits"; "lag_seconds";
           "epoch"; "archive_generation" |];
      vt_help = "this replica's view of its primary";
      vt_rows =
        (fun catalog ->
          (match prev with
          | Some p -> p.Tip_engine.Vtab.vt_rows catalog
          | None -> [])
          @ replication_rows t ()) };
  t.thread <- Some (Thread.create (fun () -> run t) ());
  t

(* Severs the current connection without stopping the loop — the
   reconnect/backoff path takes over. Test and bench hook. *)
let inject_disconnect t =
  match t.conn with
  | Some conn -> (try Remote.close conn with _ -> ())
  | None -> ()

let stop t =
  t.stopping <- true;
  inject_disconnect t;
  match t.thread with
  | Some th -> ( try Thread.join th with _ -> ())
  | None -> ()

(* --- Promotion (DESIGN.md §15) ------------------------------------------ *)

(* Stops following and becomes the primary. The follower thread is
   joined first — [Replica.feed] only ever applies whole committed
   batches, so the state the promotion freezes is a commit boundary of
   the old primary's history. The new epoch outbids every epoch this
   client has seen, so the old primary (which is at most at
   [primary_epoch]) is fenced the moment it tries to subscribe to
   anyone who has heard from us. *)
let promote ?sync ?checkpoint_every ?archive_dir t ~dir () =
  stop t;
  match t.replica with
  | None ->
    Error
      "PROMOTE: replica has no base state yet (never bootstrapped); cannot \
       become primary"
  | Some r ->
    let epoch = Stdlib.max t.primary_epoch (Replica.epoch r) + 1 in
    let gen = Replica.generation r + 1 in
    with_lock t (fun () ->
        Db.promote_replica ?sync ?checkpoint_every ?archive_dir
          ?asof:(Replica.last_commit_at r) t.db ~dir ~gen ~epoch ());
    t.state <- "promoted";
    Log.info (fun m ->
        m "promoted: primary at generation %d, epoch %d (applied %d commits \
           from the old primary)"
          gen epoch (Replica.applied_commits r));
    Ok (gen, epoch)
