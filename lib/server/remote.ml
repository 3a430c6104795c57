(* The remote client: one handle type over the wire protocol, in three
   shapes (direct, group, routed; see remote.mli). Every call is one
   request/response [exchange] on a [link]. Its transport failures come
   back as [Lost], which the direct path turns straight into
   [Remote_error] and the group/routed path weighs against the replay
   rule before it either re-sends or raises. A deadline installs
   SO_SNDTIMEO/SO_RCVTIMEO, so a hung server fails a call with a typed
   [TIMEOUT:] instead of blocking it forever. *)

module Db = Tip_engine.Database
module Ast = Tip_sql.Ast

exception Remote_error of string

(* --- Typed error classification ----------------------------------------- *)

type error_code =
  | Timeout
  | Overloaded
  | Budget
  | Shutdown
  | Idle_timeout
  | Cancelled
  | Read_only
  | Stale_read
  | Stale_epoch
  | Failover
  | Session_lost
  | Other

(* Typed server errors are "CODE: human text"; everything else (engine
   errors, parse errors, a lost connection) is Other. *)
let prefixes =
  [ ("TIMEOUT:", Timeout); ("OVERLOADED:", Overloaded); ("BUDGET:", Budget);
    ("SHUTDOWN:", Shutdown); ("IDLE_TIMEOUT:", Idle_timeout);
    ("CANCELLED:", Cancelled); ("READ_ONLY:", Read_only);
    ("STALE_READ:", Stale_read); ("STALE_EPOCH:", Stale_epoch);
    ("FAILOVER:", Failover); ("SESSION_LOST:", Session_lost) ]

let error_code msg =
  match List.find_opt (fun (prefix, _) -> String.starts_with ~prefix msg) prefixes with
  | Some (_, code) -> code
  | None -> Other

let plural n = if n = 1 then "" else "s"

(* Runs [once] up to [attempts] times, [retry_delay] seconds apart at
   first and doubling, plus up to 50% random jitter so a herd of
   clients does not retry in lockstep. [once] answers [Error msg] to
   ask for another try. [until] (an absolute time) ends the retries
   early and is never slept past. [eager] makes the first retry
   immediate: a request turned away from a live server goes straight
   to the next one. *)
let retrying ?(eager = false) ~attempts ~retry_delay ?until once =
  let out_of_time () =
    match until with Some at -> Unix.gettimeofday () >= at | None -> false
  in
  let rec go n delay =
    match once () with
    | Ok v -> v
    | Error msg when n >= attempts || out_of_time () ->
      raise
        (Remote_error
           (Printf.sprintf "%s%s (after %d attempt%s)"
              (if out_of_time () && error_code msg <> Timeout then "TIMEOUT: "
               else "")
              msg n (plural n)))
    | Error _ when eager && n = 1 -> go 2 delay
    | Error _ ->
      let pause = delay +. Random.float (delay /. 2.) in
      Unix.sleepf
        (match until with
        | Some at -> Float.min pause (Float.max 0. (at -. Unix.gettimeofday ()))
        | None -> pause);
      go (n + 1) (delay *. 2.)
  in
  go 1 (Float.max 0.001 retry_delay)

(* --- One socket --------------------------------------------------------- *)

type link = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

(* Transient connect failures — the server not up yet, or the network
   hiccuping — are worth retrying; anything else (bad address, no
   route policy, ...) fails immediately. EPIPE/ECONNABORTED belong
   here: racing a server restart, the kernel can complete the TCP
   handshake against the dying listener and then kill the socket on
   (or right after) the first send, which should retry exactly like a
   refused connection would have. *)
let transient = function
  | Unix.ECONNREFUSED | Unix.ETIMEDOUT | Unix.ENETUNREACH | Unix.ECONNRESET
  | Unix.EPIPE | Unix.ECONNABORTED ->
    true
  | _ -> false

let set_socket_timeouts fd secs =
  try
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO secs;
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO secs
  with Unix.Unix_error _ | Invalid_argument _ -> ()

(* A transport failure. [sent] is false when the request provably never
   reached the server. *)
exception Lost of { sent : bool; msg : string }

(* One TCP connect. @raise Lost on a transient failure, to be retried. *)
let open_link ?deadline ~host ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Option.iter (set_socket_timeouts fd) deadline;
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port)) with
  | () ->
    { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    let msg = Unix.error_message e in
    raise (if transient e then Lost { sent = false; msg } else Remote_error msg)

(* [f ()] as one try for {!retrying}. *)
let attempt f = match f () with v -> Ok v | exception Lost { msg; _ } -> Error msg

(* Says goodbye ([polite]) and closes. The shutdown comes first so a
   request a failed exchange left in the buffer never reaches the
   server, and so a thread blocked reading the socket wakes up. *)
let close_link ?(polite = true) l =
  if polite then
    (try
       output_string l.oc (Protocol.encode_request Protocol.Quit);
       output_char l.oc '\n';
       flush l.oc
     with Sys_error _ | Sys_blocked_io -> ());
  (try Unix.shutdown l.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  close_out_noerr l.oc

(* Between exchanges the server sends nothing, so a readable idle link
   holds its farewell or its FIN: the session is gone. *)
let alive l =
  match Unix.select [ l.fd ] [] [] 0. with
  | [], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> true

(* --- Answers ------------------------------------------------------------ *)

let result = function
  | Protocol.Rows { names; rows } -> Db.Rows { names; rows }
  | Protocol.Affected n -> Db.Affected n
  | Protocol.Message m -> Db.Message m
  | Protocol.Error e -> raise (Remote_error e)

let answer what parse = function
  | Protocol.Message m -> (
    match parse m with
    | Some v -> v
    | None -> raise (Remote_error (Printf.sprintf "bad %s response: %s" what m)))
  | Protocol.Error e -> raise (Remote_error e)
  | Protocol.Rows _ | Protocol.Affected _ ->
    raise (Remote_error ("unexpected response to a " ^ what ^ " request"))

let role_answer =
  answer "role" (fun m ->
      match String.split_on_char ' ' m with
      | [ "role"; r; e ] -> (
        match r, int_of_string_opt e with
        | "primary", Some e -> Some (`Primary, e)
        | "replica", Some e -> Some (`Replica, e)
        | _ -> None)
      | _ -> None)

let staleness_answer =
  answer "staleness" (fun m ->
      match String.split_on_char ' ' m with
      | [ "staleness"; s ] -> float_of_string_opt s
      | _ -> None)

(* --- The handle ---------------------------------------------------------- *)

type t = {
  host : string;
  port : int;
  attempts : int;
  retry_delay : float;
  deadline : float option; (* per-call wire bound, secs *)
  group : (string * int) list option; (* the other members: discover *)
  smart : bool; (* group or routed: parse, track, replay *)
  max_staleness : float option;
  on_stale : [ `Primary | `Error ];
  mutable primary : link option;
  mutable replica : link option;
  mutable binds : (string * Tip_storage.Value.t) list; (* newest first *)
  mutable in_tx : bool; (* a BEGIN was acknowledged, no COMMIT/ROLLBACK yet *)
  mutable settings : (string * string) list; (* SET NOW/TIMEOUT to replay *)
  mutable epoch : int; (* newest promotion epoch seen *)
  mutable opened : int; (* primary links opened *)
  mutable probed_at : float; (* unix time of the cached staleness probe *)
  mutable staleness_seen : float;
  mutable closed : bool;
}

let check_open t = if t.closed then raise (Remote_error "connection is closed")

let drop_primary t =
  Option.iter (close_link ~polite:false) t.primary;
  t.primary <- None

let drop_replica t =
  Option.iter (close_link ~polite:false) t.replica;
  t.replica <- None

(* Sends [requests] and reads the one response, under [deadline]
   (seconds) for this call, restoring the handle's own bound after. *)
let exchange ?deadline t l requests =
  let sent = ref false in
  let io () =
    try
      List.iter
        (fun r ->
          output_string l.oc (Protocol.encode_request r);
          output_char l.oc '\n')
        requests;
      flush l.oc;
      sent := true;
      Protocol.read_response l.ic
    with
    | Sys_blocked_io ->
      (* buffered channels surface an EAGAIN as Sys_blocked_io; a
         half-written request may still go out, so count it as sent *)
      raise (Lost { sent = true; msg = "TIMEOUT: server did not respond in time" })
    | End_of_file -> raise (Lost { sent = !sent; msg = "server closed the connection" })
    | Sys_error m -> raise (Lost { sent = !sent; msg = "connection lost: " ^ m })
    | Failure m -> raise (Lost { sent = true; msg = "protocol error: " ^ m })
  in
  match deadline with
  | None -> io ()
  | Some d ->
    set_socket_timeouts l.fd d;
    Fun.protect io ~finally:(fun () ->
        set_socket_timeouts l.fd (Option.value t.deadline ~default:0.))

(* One discovery pass: probe every member, keep the writable primary
   with the newest epoch (ties broken by endpoint order). A "primary"
   answering with an epoch older than one already seen is a fenced
   ex-primary that has not noticed the promotion yet — never route
   writes to it. *)
let discover t others =
  let members = (t.host, t.port) :: others in
  let best =
    List.fold_left
      (fun best (host, port) ->
        match open_link ?deadline:t.deadline ~host ~port () with
        | exception (Lost _ | Remote_error _) -> best
        | l -> (
          match role_answer (exchange t l [ Protocol.Role_probe ]) with
          | `Primary, e
            when e >= t.epoch
                 && (match best with Some (_, be) -> e > be | None -> true) ->
            Option.iter (fun (bl, _) -> close_link bl) best;
            Some (l, e)
          | _ ->
            close_link l;
            best
          | exception (Lost _ | Remote_error _) ->
            close_link ~polite:false l;
            best))
      None members
  in
  match best with
  | Some (l, e) ->
    t.epoch <- max t.epoch e;
    l
  | None ->
    let n = List.length members in
    raise
      (Lost
         { sent = false;
           msg = Printf.sprintf "FAILOVER: no writable primary among %d endpoint%s" n (plural n) })

(* One try at the primary link: the held one while it is alive, else a
   fresh one — one connect to host:port, or one discovery pass over
   the group — with the session's settings replayed on it.
   @raise Lost (never sent) when none is to be had. *)
let rec primary_link t =
  match t.primary with
  | Some l when (not t.smart) || alive l -> l
  | Some _ ->
    drop_primary t;
    if t.in_tx then raise (Lost { sent = false; msg = "server closed the connection" });
    primary_link t
  | None ->
    let l =
      match t.group with
      | Some others -> discover t others
      | None -> open_link ?deadline:t.deadline ~host:t.host ~port:t.port ()
    in
    List.iter
      (fun (_, sql) ->
        match exchange t l [ Protocol.Execute sql ] with
        | Protocol.Error msg | (exception Lost { msg; _ }) ->
          close_link ~polite:false l;
          raise (Lost { sent = false; msg })
        | _ -> ())
      (List.rev t.settings);
    t.primary <- Some l;
    t.opened <- t.opened + 1;
    l

(* The direct path: whatever the one socket answers. A transport
   failure closes it for good. *)
let direct ?deadline t requests =
  match t.primary with
  | None -> raise (Remote_error "connection lost: the session is closed; reconnect")
  | Some l -> (
    match exchange ?deadline t l requests with
    | response -> response
    | exception Lost { msg; _ } ->
      drop_primary t;
      raise (Remote_error msg))

(* The server turned the request away without running it, and another
   session — a new one, or the group's new primary — may take it. *)
let refused t e =
  match error_code e with
  | Shutdown | Idle_timeout -> true
  | Read_only | Stale_epoch -> t.group <> None
  | _ -> false

let lose_tx t msg =
  t.in_tx <- false;
  raise
    (Remote_error
       ("SESSION_LOST: the transaction's session is gone (" ^ msg
      ^ "); the server rolls back what it had not committed, so restart \
         the transaction"))

(* The replay rule: re-send [requests] on a fresh primary link when
   the server refused them unrun, when they never left, or — for a
   [replayable] read outside a transaction — when the link died under
   them. A write's wire TIMEOUT or lost socket raises instead. *)
let on_primary ?deadline t ~replayable requests =
  retrying ~eager:true ~attempts:t.attempts ~retry_delay:t.retry_delay (fun () ->
      match primary_link t with
      | exception Lost { msg; _ } -> if t.in_tx then lose_tx t msg else Error msg
      | l -> (
        match exchange ?deadline t l requests with
        | Protocol.Error e when refused t e ->
          drop_primary t;
          if t.in_tx then lose_tx t e else Error e
        | response -> Ok response
        | exception Lost { sent; msg } ->
          drop_primary t;
          if t.in_tx then lose_tx t msg
          else if (not sent) || (replayable && error_code msg <> Timeout) then
            Error msg
          else raise (Remote_error msg)))

let probe_cache_secs = 0.2

(* Whether reads may go to the replica: always without [max_staleness],
   else while its (briefly cached) staleness is within the bound. An
   unreachable replica is dropped. *)
let fresh_enough ?deadline t rep =
  match t.max_staleness with
  | None -> true
  | Some bound -> (
    let now = Unix.gettimeofday () in
    let seen =
      if now -. t.probed_at <= probe_cache_secs then Some t.staleness_seen
      else
        match staleness_answer (exchange ?deadline t rep [ Protocol.Lag_probe ]) with
        | s ->
          t.probed_at <- now;
          t.staleness_seen <- s;
          Some s
        | exception (Lost _ | Remote_error _) ->
          drop_replica t;
          None
    in
    match seen, t.on_stale with
    | None, _ -> false
    | Some s, _ when s <= bound -> true
    | Some _, `Primary -> false
    | Some s, `Error ->
      raise
        (Remote_error
           (Printf.sprintf "STALE_READ: replica is %.3fs behind (max_staleness %gs)"
              s bound)))

(* The replica's answer to a read, or [None] to ask the primary. *)
let from_replica ?deadline t requests =
  match t.replica with
  | Some rep when fresh_enough ?deadline t rep -> (
    match exchange ?deadline t rep requests with
    | Protocol.Error e when error_code e = Other ->
      None (* engine errors replay identically on the primary *)
    | Protocol.Error e when refused t e ->
      drop_replica t;
      None
    | response -> Some response
    | exception Lost { msg; _ } ->
      drop_replica t;
      if error_code msg = Timeout then raise (Remote_error msg) else None)
  | Some _ | None -> None

type route = Read | Setting of string | Begin | End | Write

let route sql =
  match Tip_sql.Parser.parse sql with
  | Ast.Begin_tx -> Begin
  | Ast.Commit_tx | Ast.Rollback_tx -> End
  | Ast.Set_now _ -> Setting "now"
  | Ast.Set_timeout _ -> Setting "timeout"
  | stmt -> if Db.read_only_statement stmt then Read else Write
  | exception Tip_sql.Parser.Error _ -> Write (* the server says why *)

(* The group/routed path: classify once, route, and track what the
   statement did to the session. *)
let routed ?deadline t sql requests =
  let route = route sql in
  let response =
    match route with
    | Read when not t.in_tx -> (
      match from_replica ?deadline t requests with
      | Some response -> response
      | None -> on_primary ?deadline t ~replayable:true requests)
    | Read | Setting _ -> on_primary ?deadline t ~replayable:true requests
    | Begin | End | Write -> on_primary ?deadline t ~replayable:false requests
  in
  (match route, response with
  | Begin, Protocol.Message _ -> t.in_tx <- true
  | End, _ -> t.in_tx <- false
  | Setting kind, (Protocol.Message _ | Protocol.Affected _) -> (
    t.settings <- (kind, sql) :: List.remove_assoc kind t.settings;
    match t.replica with
    | Some rep -> (
      match exchange ?deadline t rep [ Protocol.Execute sql ] with
      | Protocol.Error _ | (exception Lost _) -> drop_replica t
      | _ -> ())
    | None -> ())
  | _ -> ());
  response

(* --- Public calls -------------------------------------------------------- *)

let connect ?(host = "127.0.0.1") ?(attempts = 5) ?(retry_delay = 0.05)
    ?deadline ?group ?replica ?max_staleness ?(on_stale = `Primary) ~port () =
  (* the server dropping the connection must surface as an exception on
     our write, not kill the client process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let t =
    { host; port; attempts = max 1 attempts; retry_delay; deadline; group;
      smart = group <> None || replica <> None;
      max_staleness; on_stale; primary = None; replica = None; binds = [];
      in_tx = false; settings = []; epoch = 0; opened = 0; probed_at = 0.;
      staleness_seen = 0.; closed = false }
  in
  let until = Option.map (fun d -> Unix.gettimeofday () +. d) deadline in
  ignore
    (retrying ~attempts:t.attempts ~retry_delay ?until (fun () ->
         attempt (fun () -> primary_link t)));
  (* a dead replica at connect time is degradation, not failure *)
  (t.replica <-
     match replica with
     | None -> None
     | Some (host, port) -> (
       try Some (retrying ~attempts:2 ~retry_delay (fun () ->
             attempt (open_link ?deadline ~host ~port)))
       with Remote_error _ -> None));
  t

let bind t name value =
  check_open t;
  t.binds <- (name, value) :: t.binds

let execute ?deadline t sql =
  check_open t;
  let requests =
    List.fold_left
      (fun rest (name, v) -> Protocol.Bind (name, v) :: rest)
      [ Protocol.Execute sql ] t.binds
  in
  t.binds <- [];
  result
    (if t.smart then routed ?deadline t sql requests
     else direct ?deadline t requests)

(* A probe for the server itself — on a group handle, its primary. *)
let call ?deadline t request =
  check_open t;
  if t.smart then on_primary ?deadline t ~replayable:true [ request ]
  else direct ?deadline t [ request ]

let metrics ?deadline t = answer "metrics" Option.some (call ?deadline t Protocol.Metrics)
let staleness ?deadline t = staleness_answer (call ?deadline t Protocol.Lag_probe)
let role ?deadline t = role_answer (call ?deadline t Protocol.Role_probe)
let epoch t = t.epoch
let failovers t = max 0 (t.opened - 1)
let on_replica t = t.replica <> None

let close t =
  if not t.closed then begin
    t.closed <- true;
    Option.iter close_link t.primary;
    Option.iter close_link t.replica
  end

let channels t =
  match t.primary with
  | Some l -> (l.ic, l.oc)
  | None -> raise (Remote_error "connection is closed")
