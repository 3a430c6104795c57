(* Client connections — the OCaml analog of the TIP C/Java libraries.

   A connection owns one engine session of its database: its own
   transaction, its own NOW override (the what-if mechanism of
   Section 4) and its own statement timeout. Two clients of the same
   database therefore evaluate queries in different temporal contexts,
   and neither sees the other's settings. *)

module Db = Tip_engine.Database

exception Client_error of string

type t = {
  db : Db.t;
  session : Db.session;
  start_now : Tip_core.Chronon.t option; (* the session's starting NOW *)
  mutable closed : bool;
}

(* Attaches to an existing database (shared embedded server). *)
let connect_to db =
  let session = Db.session db in
  { db; session; start_now = Db.now_override ~session db; closed = false }

(* Opens a connection to a fresh embedded database. The TIP blade is
   installed unless [blade:false] is given (useful for testing the bare
   engine). *)
let connect ?(blade = true) () =
  connect_to (if blade then Tip_blade.Blade.create_database () else Db.create ())

(* Closing rolls back the connection's open transaction, if any. *)
let close t =
  if not t.closed then begin
    t.closed <- true;
    Db.close_session t.db t.session
  end

let is_closed t = t.closed
let database t = t.db
let session t = t.session

let check_open t = if t.closed then raise (Client_error "connection is closed")

(* What-if analysis: evaluate subsequent statements as if NOW were the
   given chronon. *)
let set_now t chronon =
  check_open t;
  Db.set_now ~session:t.session t.db (Some chronon)

let clear_now t =
  check_open t;
  Db.set_now ~session:t.session t.db None

let session_now t =
  match Db.now_override ~session:t.session t.db with
  | now when now = t.start_now -> None
  | now -> now

let execute ?(params = []) t sql =
  check_open t;
  Db.exec ~params ~session:t.session t.db sql

let execute_script ?(params = []) t sql =
  check_open t;
  Db.exec_script ~params ~session:t.session t.db sql

(* Convenience single-shot query returning a result set. *)
let query ?(params = []) t sql = Result_set.of_result (execute ~params t sql)

let execute_update ?(params = []) t sql =
  match execute ~params t sql with
  | Db.Affected n -> n
  | Db.Rows _ | Db.Message _ ->
    raise (Client_error "statement did not return an update count")
