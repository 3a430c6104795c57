(* Client/server over the wire protocol: the ODBC/JDBC leg of Figure 1. *)

open Tip_storage
module Db = Tip_engine.Database

let value = Alcotest.testable Value.pp Value.equal

(* One shared demo server on an ephemeral port for the whole suite. *)
let server =
  lazy
    (let db = Tip_workload.Medical.demo_database () in
     let server = Tip_server.Server.listen ~port:0 db in
     Tip_server.Server.serve_in_background server;
     server)

let connect () =
  Tip_server.Remote.connect ~port:(Tip_server.Server.port (Lazy.force server)) ()

let check_basic_roundtrip () =
  let c = connect () in
  (match Tip_server.Remote.execute c "SELECT COUNT(*) FROM Prescription" with
  | Db.Rows { names = [ "count" ]; rows = [ [| Value.Int 5 |] ] } -> ()
  | r -> Alcotest.failf "unexpected result: %s" (Db.render_result r));
  (* typed values cross the wire and come back as blade values *)
  (match
     Tip_server.Remote.execute c
       "SELECT patientdob, frequency, valid FROM Prescription WHERE drug = 'Diabeta'"
   with
  | Db.Rows { rows = [ [| dob; freq; valid |] ]; _ } ->
    Alcotest.check value "chronon over the wire"
      (Tip_blade.Values.chronon (Tip_core.Chronon.of_ymd 1962 3 3))
      dob;
    Alcotest.check value "span over the wire"
      (Tip_blade.Values.span (Tip_core.Span.of_hours 8))
      freq;
    Alcotest.(check string) "NOW stays symbolic on the wire"
      "{[1999-10-01, NOW]}"
      (Value.to_display_string valid)
  | r -> Alcotest.failf "unexpected result: %s" (Db.render_result r));
  Tip_server.Remote.close c

let check_dml_and_errors () =
  let c = connect () in
  (match
     Tip_server.Remote.execute c
       "CREATE TABLE net_t (a INT PRIMARY KEY, b CHAR(5))"
   with
  | Db.Message _ -> ()
  | _ -> Alcotest.fail "expected message");
  (match Tip_server.Remote.execute c "INSERT INTO net_t VALUES (1, 'x'), (2, 'y')" with
  | Db.Affected 2 -> ()
  | _ -> Alcotest.fail "expected affected 2");
  (* errors come back as exceptions and the session stays usable *)
  (match Tip_server.Remote.execute c "INSERT INTO net_t VALUES (1, 'dup')" with
  | exception Tip_server.Remote.Remote_error msg ->
    Alcotest.(check bool) "error mentions the duplicate" true
      (try
         ignore (Str.search_forward (Str.regexp_string "duplicate") msg 0);
         true
       with Not_found -> false)
  | _ -> Alcotest.fail "expected remote error");
  (match Tip_server.Remote.execute c "SELECT COUNT(*) FROM net_t" with
  | Db.Rows { rows = [ [| Value.Int 2 |] ]; _ } -> ()
  | _ -> Alcotest.fail "session must survive the error");
  ignore (Tip_server.Remote.execute c "DROP TABLE net_t");
  Tip_server.Remote.close c

(* A number the lexer rejects answers E; the same session answers the
   next statement. *)
let check_bad_number_keeps_session () =
  let c = connect () in
  List.iter
    (fun sql ->
      match Tip_server.Remote.execute c sql with
      | exception Tip_server.Remote.Remote_error msg ->
        Alcotest.(check bool) ("lexical error for " ^ sql) true
          (try
             ignore (Str.search_forward (Str.regexp_string "number") msg 0);
             true
           with Not_found -> false)
      | _ -> Alcotest.failf "%s: want an E response" sql)
    [ "SELECT 99999999999999999999"; "SELECT 1e"; "SELECT 1.5e+" ];
  (match Tip_server.Remote.execute c "SELECT COUNT(*) FROM Prescription" with
  | Db.Rows { rows = [ [| Value.Int 5 |] ]; _ } -> ()
  | r -> Alcotest.failf "session must survive: %s" (Db.render_result r));
  Tip_server.Remote.close c

let check_parameters_over_wire () =
  let c = connect () in
  Tip_server.Remote.bind c "w" (Value.Int 1);
  (match
     Tip_server.Remote.execute c
       "SELECT patient FROM Prescription WHERE drug = 'Tylenol' AND \
        start(valid) - patientdob < '7 00:00:00'::Span * :w"
   with
  | Db.Rows { rows = [ [| Value.Str "Ms.Stone" |] ]; _ } -> ()
  | r -> Alcotest.failf "unexpected: %s" (Db.render_result r));
  (* bindings are consumed by the next execute *)
  (match
     Tip_server.Remote.execute c "SELECT COUNT(*) FROM Prescription WHERE 1 = :w"
   with
  | exception Tip_server.Remote.Remote_error _ -> ()
  | _ -> Alcotest.fail "stale binding must not leak");
  (* temporal parameter *)
  Tip_server.Remote.bind c "at"
    (Tip_blade.Values.chronon (Tip_core.Chronon.of_ymd 1999 10 3));
  (match
     Tip_server.Remote.execute c
       "SELECT COUNT(*) FROM Prescription WHERE contains(valid, :at)"
   with
  | Db.Rows { rows = [ [| Value.Int 3 |] ]; _ } -> ()
  | r -> Alcotest.failf "unexpected: %s" (Db.render_result r));
  Tip_server.Remote.close c

let check_concurrent_clients () =
  let banks = 4 and per_client = 25 in
  ignore
    (Tip_server.Remote.execute (connect ())
       "CREATE TABLE counter (k INT, v INT)");
  let worker i () =
    let c = connect () in
    for j = 0 to per_client - 1 do
      ignore
        (Tip_server.Remote.execute c
           (Printf.sprintf "INSERT INTO counter VALUES (%d, %d)" i j))
    done;
    Tip_server.Remote.close c
  in
  let threads = List.init banks (fun i -> Thread.create (worker i) ()) in
  List.iter Thread.join threads;
  let c = connect () in
  (match Tip_server.Remote.execute c "SELECT COUNT(*) FROM counter" with
  | Db.Rows { rows = [ [| Value.Int n |] ]; _ } ->
    Alcotest.(check int) "all inserts landed" (banks * per_client) n
  | _ -> Alcotest.fail "count");
  ignore (Tip_server.Remote.execute c "DROP TABLE counter");
  Tip_server.Remote.close c

(* After an idle drop, every later call on the direct handle fails
   with the typed [Remote_error] — the farewell first, then the lost
   connection — never a raw transport exception. *)
let check_lost_connection_is_typed () =
  let server = Tip_server.Server.listen ~idle_timeout:0.2 ~port:0 (Db.create ()) in
  Tip_server.Server.serve_in_background server;
  Fun.protect ~finally:(fun () -> Tip_server.Server.stop server) @@ fun () ->
  let c = Tip_server.Remote.connect ~port:(Tip_server.Server.port server) () in
  ignore (Tip_server.Remote.execute c "SELECT 1");
  Unix.sleepf 0.6;
  for i = 1 to 3 do
    match Tip_server.Remote.execute c "SELECT 1" with
    | (_ : Db.result) -> Alcotest.failf "call %d after the drop answered" i
    | exception Tip_server.Remote.Remote_error _ -> ()
    | exception e ->
      Alcotest.failf "call %d after the drop raised %s" i (Printexc.to_string e)
  done;
  Tip_server.Remote.close c

let suite =
  [ Alcotest.test_case "round trip with typed values" `Quick
      check_basic_roundtrip;
    Alcotest.test_case "DML and error recovery" `Quick check_dml_and_errors;
    Alcotest.test_case "malformed number keeps the session" `Quick
      check_bad_number_keeps_session;
    Alcotest.test_case "parameters over the wire" `Quick
      check_parameters_over_wire;
    Alcotest.test_case "concurrent clients" `Quick check_concurrent_clients;
    Alcotest.test_case "a lost connection raises Remote_error" `Quick
      check_lost_connection_is_typed ]
