(* Resource governance (DESIGN.md §10): deadline tokens, resource
   budgets, cooperative cancellation with clean statement rollback,
   admission control, graceful drain, and client-side wire deadlines.

   The centerpiece is a cancellation differential fuzz mirroring the
   crash-recovery fuzz: the same random traces run against a durable
   database with the executor's poll site armed to cancel after its
   k-th invocation, and both the live state and the recovered state
   must equal the in-memory state after some whole-statement prefix —
   a cancelled statement leaves no effects and journals nothing. *)

open Tip_storage
module Db = Tip_engine.Database
module Deadline = Tip_core.Deadline
module Server = Tip_server.Server
module Remote = Tip_server.Remote

(* --- Shared fixtures ----------------------------------------------------- *)

(* A table big enough that a self cross join (n^2 row pairs under a
   never-true non-equi predicate, so the planner keeps a nested loop)
   runs long enough to cancel, yet cheap to build. *)
let fill_big db rows =
  ignore (Db.exec db "CREATE TABLE big (a INT PRIMARY KEY, b CHAR(8))");
  let i = ref 0 in
  while !i < rows do
    let batch = min 200 (rows - !i) in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "INSERT INTO big VALUES ";
    for j = 0 to batch - 1 do
      if j > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Printf.sprintf "(%d, 'r%d')" (!i + j) (!i + j))
    done;
    ignore (Db.exec db (Buffer.contents buf));
    i := !i + batch
  done

let heavy_sql = "SELECT COUNT(*) FROM big b1, big b2 WHERE b1.a + b2.a < -1"

let big_db rows =
  let db = Db.create () in
  fill_big db rows;
  db

let expect_cancelled ?reason f =
  match f () with
  | _ -> Alcotest.fail "expected Deadline.Cancelled"
  | exception Deadline.Cancelled r -> (
    match reason with
    | None -> ()
    | Some expect ->
      if expect <> r then
        Alcotest.failf "cancelled with %s, wanted %s"
          (Deadline.reason_label r) (Deadline.reason_label expect))

(* --- Token unit tests ---------------------------------------------------- *)

let check_token_basics () =
  let t = Deadline.create () in
  Alcotest.(check bool) "fresh token not cancelled" true (Deadline.cancelled t = None);
  Deadline.check t;
  Deadline.cancel t Deadline.Client_gone;
  (* first reason wins *)
  Deadline.cancel t Deadline.Shutdown;
  (match Deadline.cancelled t with
  | Some Deadline.Client_gone -> ()
  | _ -> Alcotest.fail "first cancellation reason must win");
  expect_cancelled ~reason:Deadline.Client_gone (fun () -> Deadline.check t);
  (* the shared never token is inert: cancelling it is a no-op *)
  Alcotest.(check bool) "never is never" true (Deadline.is_never Deadline.never);
  Deadline.cancel Deadline.never Deadline.Shutdown;
  Deadline.check Deadline.never;
  Alcotest.(check bool) "never stays uncancelled" true
    (Deadline.cancelled Deadline.never = None)

let check_token_timeout () =
  let t = Deadline.create ~timeout_ms:20 () in
  Alcotest.(check bool) "deadline armed" true (Deadline.has_deadline t);
  Unix.sleepf 0.08;
  (match Deadline.cancelled t with
  | Some Deadline.Timeout -> ()
  | _ -> Alcotest.fail "expired deadline must read as Timeout");
  expect_cancelled ~reason:Deadline.Timeout (fun () -> Deadline.check t);
  (* arm_timeout_if_unset must not shorten an existing deadline *)
  let t2 = Deadline.create ~timeout_ms:60_000 () in
  Deadline.arm_timeout_if_unset t2 1;
  (match Deadline.remaining_ms t2 with
  | Some ms when ms > 1_000. -> ()
  | Some ms -> Alcotest.failf "deadline was shortened to %.0fms" ms
  | None -> Alcotest.fail "deadline vanished");
  (* ... but does arm a bare token *)
  let t3 = Deadline.create () in
  Deadline.arm_timeout_if_unset t3 50_000;
  Alcotest.(check bool) "bare token armed" true (Deadline.has_deadline t3)

let check_reason_labels () =
  Alcotest.(check string) "timeout label" "TIMEOUT"
    (Deadline.reason_label Deadline.Timeout);
  Alcotest.(check string) "budget label" "BUDGET"
    (Deadline.reason_label (Deadline.Budget "x"));
  List.iter
    (fun (code, r) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s message classifies" (Deadline.reason_label r))
        true
        (Remote.error_code (Deadline.reason_message r) = code))
    [ (Remote.Timeout, Deadline.Timeout);
      (Remote.Cancelled, Deadline.Client_gone);
      (Remote.Shutdown, Deadline.Shutdown);
      (Remote.Budget, Deadline.Budget "rows") ]

(* --- Budgets ------------------------------------------------------------- *)

let check_budget_rows_scanned () =
  let db = big_db 600 in
  let token = Deadline.create ~max_rows_scanned:100 () in
  expect_cancelled (fun () -> Db.exec ~token db "SELECT * FROM big");
  Alcotest.(check bool) "scan charge recorded" true
    (Deadline.rows_scanned token >= 100);
  (* a budget-free statement on the same database still works *)
  match Db.exec db "SELECT COUNT(*) FROM big" with
  | Db.Rows { rows = [ [| Value.Int 600 |] ]; _ } -> ()
  | r -> Alcotest.failf "database unusable after budget abort: %s" (Db.render_result r)

let check_budget_result_rows () =
  let db = big_db 600 in
  let token = Deadline.create ~max_result_rows:10 () in
  expect_cancelled (fun () -> Db.exec ~token db "SELECT * FROM big")

let check_budget_mem () =
  let db = big_db 600 in
  let token = Deadline.create ~max_mem_kb:1 () in
  expect_cancelled (fun () -> Db.exec ~token db "SELECT * FROM big");
  Alcotest.(check bool) "memory estimate recorded" true
    (Deadline.mem_bytes token > 0)

(* --- Timeouts and cross-thread cancellation ------------------------------ *)

let check_timeout_aborts_heavy_query () =
  let db = big_db 2000 in
  let started = Unix.gettimeofday () in
  let token = Deadline.create ~timeout_ms:40 () in
  expect_cancelled ~reason:Deadline.Timeout (fun () -> Db.exec ~token db heavy_sql);
  let elapsed = Unix.gettimeofday () -. started in
  if elapsed > 5.0 then
    Alcotest.failf "cancellation took %.1fs — polling is not reaching the join" elapsed

let check_set_timeout_statement () =
  let db = big_db 2000 in
  Alcotest.(check bool) "no default timeout" true (Db.statement_timeout_ms db = None);
  (match Db.exec db "SET TIMEOUT 40" with
  | Db.Message _ -> ()
  | r -> Alcotest.failf "SET TIMEOUT: %s" (Db.render_result r));
  Alcotest.(check bool) "timeout installed" true
    (Db.statement_timeout_ms db = Some 40);
  (* the session default now governs token-less statements *)
  expect_cancelled ~reason:Deadline.Timeout (fun () -> Db.exec db heavy_sql);
  ignore (Db.exec db "SET TIMEOUT 0");
  Alcotest.(check bool) "SET TIMEOUT 0 disables" true
    (Db.statement_timeout_ms db = None);
  ignore (Db.exec db "SET TIMEOUT 40");
  ignore (Db.exec db "SET TIMEOUT DEFAULT");
  Alcotest.(check bool) "SET TIMEOUT DEFAULT disables" true
    (Db.statement_timeout_ms db = None);
  match Db.exec db "SELECT COUNT(*) FROM big" with
  | Db.Rows _ -> ()
  | r -> Alcotest.failf "statement after disable: %s" (Db.render_result r)

let check_cross_thread_cancel () =
  let db = big_db 2000 in
  let token = Deadline.create () in
  let canceller =
    Thread.create
      (fun () ->
        Unix.sleepf 0.05;
        Deadline.cancel token Deadline.Client_gone)
      ()
  in
  expect_cancelled ~reason:Deadline.Client_gone (fun () -> Db.exec ~token db heavy_sql);
  Thread.join canceller

(* --- Cancellation rollback: nothing applied, nothing journaled ----------- *)

(* A deadline that passes while the chunk aggregate folds its rows
   cancels the statement with the deadline reason and returns no rows:
   the chunk driver polls the token once per 1024-row chunk, so the fold
   stops well short of the end. A token reads the clock on every 16th
   poll, hence 32 polls' worth of rows. *)
let check_timeout_during_fold () =
  let rows = 32 * 1024 in
  let db = Db.create () in
  ignore (Db.exec db "CREATE TABLE big (a INT)");
  let table = Catalog.table_exn (Db.catalog db) "big" in
  for i = 1 to rows do
    ignore (Table.insert table [| Value.Int i |])
  done;
  let steps = Atomic.make 0 in
  Tip_engine.Extension.register_aggregate (Db.extension db) ~name:"slow_count"
    (Tip_engine.Extension.fold_aggregate
       ~init:(fun () -> Value.Int 0)
       ~step:(fun ~now:_ acc _ ->
         (* the first step outlasts the statement's deadline *)
         if Atomic.fetch_and_add steps 1 = 0 then Unix.sleepf 0.4;
         Value.Int (Value.to_int acc + 1))
       ~final:(fun ~now:_ acc -> acc));
  let token = Deadline.create ~timeout_ms:200 () in
  expect_cancelled ~reason:Deadline.Timeout (fun () ->
      Db.exec ~token db "SELECT slow_count(a) FROM big");
  let n = Atomic.get steps in
  Alcotest.(check bool)
    (Printf.sprintf "fold started and stopped early (%d of %d steps)" n rows)
    true
    (n >= 1 && n < rows)

let check_cancel_journals_nothing () =
  Test_durability.with_dir (fun dir ->
      Failpoint.reset ();
      let db, _ = Db.open_durable ~sync:Wal.Always ~dir () in
      fill_big db 400;
      (* cancel the UPDATE at its 50th executor poll, mid-application *)
      Failpoint.arm ~site:"exec.poll" ~hit:50 (Failpoint.Fail "cancel");
      let token = Deadline.create () in
      expect_cancelled (fun () ->
          Db.exec ~token db "UPDATE big SET b = 'mutated' WHERE a >= 0");
      Failpoint.reset ();
      (* live state: the cancelled statement left no trace *)
      (match Db.exec db "SELECT COUNT(*) FROM big WHERE b = 'mutated'" with
      | Db.Rows { rows = [ [| Value.Int 0 |] ]; _ } -> ()
      | r -> Alcotest.failf "cancelled UPDATE leaked rows: %s" (Db.render_result r));
      (* a later committed statement still journals normally *)
      ignore (Db.exec db "INSERT INTO big VALUES (9001, 'after')");
      Db.close_durable db;
      (* recovery replays the WAL: the cancelled statement must not be
         in it, the later insert must *)
      let db2, _ = Db.open_durable ~dir () in
      (match Db.exec db2 "SELECT COUNT(*) FROM big WHERE b = 'mutated'" with
      | Db.Rows { rows = [ [| Value.Int 0 |] ]; _ } -> ()
      | r -> Alcotest.failf "cancelled UPDATE reached the WAL: %s" (Db.render_result r));
      (match Db.exec db2 "SELECT COUNT(*) FROM big WHERE a = 9001" with
      | Db.Rows { rows = [ [| Value.Int 1 |] ]; _ } -> ()
      | r -> Alcotest.failf "post-cancel insert lost: %s" (Db.render_result r));
      Db.close_durable db2)

(* Armed failpoints shrink execution chunks to one row, so the executor
   polls at every row boundary: a SELECT over the 400-row table reaches
   its 50th poll whether it reads a plain scan or an index scan. *)
let check_select_cancels_per_row () =
  let db = big_db 400 in
  Fun.protect ~finally:Failpoint.reset (fun () ->
      List.iter
        (fun (sql, access) ->
          (match Db.exec db ("EXPLAIN " ^ sql) with
          | Db.Message plan when Test_planner_shapes.contains plan access -> ()
          | r -> Alcotest.failf "%s should plan a %s:\n%s" sql access (Db.render_result r));
          Failpoint.reset ();
          Failpoint.arm ~site:"exec.poll" ~hit:50 (Failpoint.Fail "cancel");
          expect_cancelled (fun () -> Db.exec ~token:(Deadline.create ()) db sql))
        [ ("SELECT a, b FROM big WHERE b <> 'none'", "SeqScan big");
          ("SELECT a, b FROM big WHERE a >= 0", "IndexScan big") ])

(* --- Cancellation differential fuzz -------------------------------------- *)

(* One (trace, poll-hit) pair: run the trace durably with the executor
   poll site armed to cancel on its k-th invocation, stop at the first
   cancellation, and check both live and recovered state are clean
   whole-statement prefixes of the reference run. *)
let run_cancel_case ~trace ~prefixes ~case =
  let hit = 1 + (case * 13 mod 97) in
  Test_durability.with_dir (fun dir ->
      Failpoint.reset ();
      let db, _ = Db.open_durable ~sync:Wal.Always ~dir () in
      Failpoint.arm ~site:"exec.poll" ~hit (Failpoint.Fail "cancel");
      let applied = ref 0 in
      (try
         List.iter
           (fun sql ->
             (match Db.exec ~token:(Deadline.create ()) db sql with
             | _ -> ()
             | exception Deadline.Cancelled _ -> raise Exit
             | exception _ -> ());
             incr applied)
           trace
       with Exit -> ());
      Failpoint.reset ();
      let live = Test_durability.fingerprint (Db.catalog db) in
      if not (String.equal live prefixes.(!applied)) then
        Alcotest.failf
          "live state is not the %d-statement prefix (case %d, hit %d)"
          !applied case hit;
      Db.close_durable db;
      let db2, _ = Db.open_durable ~dir () in
      let recovered = Test_durability.fingerprint (Db.catalog db2) in
      Db.close_durable db2;
      let matches = ref false in
      for m = 0 to !applied do
        if String.equal prefixes.(m) recovered then matches := true
      done;
      if not !matches then
        Alcotest.failf
          "recovered state matches no prefix <= %d (case %d, hit %d)"
          !applied case hit)

let check_cancel_fuzz () =
  let traces = 8 and points = 6 in
  for seed = 1 to traces do
    let trace = Test_durability.gen_trace seed in
    let prefixes = Test_durability.prefix_fingerprints trace in
    for j = 0 to points - 1 do
      run_cancel_case ~trace ~prefixes ~case:((seed * points) + j)
    done
  done

(* --- Server governance --------------------------------------------------- *)

let with_server ?idle_timeout ?max_sessions ?statement_timeout_ms ?(rows = 0) f =
  let db = Db.create () in
  fill_big db rows;
  let server =
    Server.listen ?idle_timeout ?max_sessions ?statement_timeout_ms ~port:0 db
  in
  Server.serve_in_background server;
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f server (Server.port server))

let expect_remote_code code f =
  match f () with
  | (_ : Db.result) -> Alcotest.fail "expected a typed Remote_error"
  | exception Remote.Remote_error msg ->
    if Remote.error_code msg <> code then
      Alcotest.failf "wrong error class for %S" msg

let check_admission_control () =
  with_server ~max_sessions:1 (fun _server port ->
      let c1 = Remote.connect ~port () in
      (match Remote.execute c1 "SELECT 1" with
      | Db.Rows _ -> ()
      | r -> Alcotest.failf "first session warm-up: %s" (Db.render_result r));
      (* the second connection is accepted only to be told why not *)
      let c2 = Remote.connect ~port () in
      expect_remote_code Remote.Overloaded (fun () -> Remote.execute c2 "SELECT 1");
      Remote.close c2;
      (* the admitted session keeps working, promptly *)
      let started = Unix.gettimeofday () in
      (match Remote.execute c1 "SELECT 2 + 2" with
      | Db.Rows { rows = [ [| Value.Int 4 |] ]; _ } -> ()
      | r -> Alcotest.failf "admitted session broken: %s" (Db.render_result r));
      if Unix.gettimeofday () -. started > 1.0 then
        Alcotest.fail "admitted session latency blew up under rejection";
      Remote.close c1;
      (* once the slot frees, new sessions are admitted again *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec readmitted () =
        let c = Remote.connect ~port () in
        match Remote.execute c "SELECT 1" with
        | Db.Rows _ -> Remote.close c
        | _ -> Alcotest.fail "unexpected readmission result"
        | exception Remote.Remote_error _ ->
          Remote.close c;
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "slot never freed after close"
          else begin
            Unix.sleepf 0.05;
            readmitted ()
          end
      in
      readmitted ())

let check_server_statement_timeout () =
  with_server ~statement_timeout_ms:40 ~rows:2000 (fun _server port ->
      let c = Remote.connect ~port () in
      (* the server default governs every statement... *)
      expect_remote_code Remote.Timeout (fun () -> Remote.execute c heavy_sql);
      (* ...until the session turns it off... *)
      (match Remote.execute c "SET TIMEOUT 0" with
      | Db.Message _ -> ()
      | r -> Alcotest.failf "SET TIMEOUT 0: %s" (Db.render_result r));
      (match Remote.execute c "SELECT COUNT(*) FROM big" with
      | Db.Rows _ -> ()
      | r -> Alcotest.failf "untimed statement: %s" (Db.render_result r));
      (* ...or tightens it again *)
      (match Remote.execute c "SET TIMEOUT 5" with
      | Db.Message _ -> ()
      | r -> Alcotest.failf "SET TIMEOUT 5: %s" (Db.render_result r));
      expect_remote_code Remote.Timeout (fun () -> Remote.execute c heavy_sql);
      (match Remote.execute c "SET TIMEOUT DEFAULT" with
      | Db.Message _ -> ()
      | r -> Alcotest.failf "SET TIMEOUT DEFAULT: %s" (Db.render_result r));
      Remote.close c)

let check_drain_cancels_inflight () =
  with_server ~rows:3000 (fun server port ->
      let c = Remote.connect ~port () in
      (match Remote.execute c "SELECT 1" with
      | Db.Rows _ -> ()
      | r -> Alcotest.failf "warm-up: %s" (Db.render_result r));
      let outcome = ref `Pending in
      let worker =
        Thread.create
          (fun () ->
            match Remote.execute c heavy_sql with
            | (_ : Db.result) -> outcome := `Finished
            | exception Remote.Remote_error msg -> outcome := `Error msg
            | exception e -> outcome := `Error (Printexc.to_string e))
          ()
      in
      Unix.sleepf 0.15;
      let secs = Server.drain server in
      Alcotest.(check bool) "drain within grace" true (secs < 5.0);
      Alcotest.(check bool) "draining flag set" true (Server.draining server);
      Thread.join worker;
      (match !outcome with
      | `Error msg when Remote.error_code msg = Remote.Shutdown -> ()
      | `Error msg -> Alcotest.failf "expected SHUTDOWN, got %S" msg
      | `Finished -> Alcotest.fail "heavy query outran the drain — enlarge it"
      | `Pending -> Alcotest.fail "worker never ran");
      Remote.close c)

let check_idle_timeout_typed () =
  with_server ~idle_timeout:0.2 (fun _server port ->
      let c = Remote.connect ~port () in
      (match Remote.execute c "SELECT 1" with
      | Db.Rows _ -> ()
      | r -> Alcotest.failf "warm-up: %s" (Db.render_result r));
      Unix.sleepf 0.6;
      (match Remote.execute c "SELECT 1" with
      | (_ : Db.result) -> Alcotest.fail "idle session should have been dropped"
      | exception Remote.Remote_error msg ->
        if Remote.error_code msg <> Remote.Idle_timeout then
          Alcotest.failf "idle drop was not typed: %S" msg
      | exception Sys_error _ ->
        (* the farewell E line can lose the race with the close; a
           transport error is acceptable, silence is not *)
        ());
      Remote.close c)

(* --- Client wire deadlines ----------------------------------------------- *)

(* A listener that accepts nothing: connections sit in the kernel
   backlog, so connects succeed and every request goes unanswered. *)
let with_black_hole f =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 8;
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f port)

let check_remote_deadline () =
  with_black_hole (fun port ->
      let c = Remote.connect ~deadline:2.0 ~port () in
      let started = Unix.gettimeofday () in
      (match Remote.execute ~deadline:0.3 c "SELECT 1" with
      | (_ : Db.result) -> Alcotest.fail "a silent server answered?"
      | exception Remote.Remote_error msg ->
        if Remote.error_code msg <> Remote.Timeout then
          Alcotest.failf "wire timeout was not typed: %S" msg);
      let elapsed = Unix.gettimeofday () -. started in
      if elapsed > 5.0 then
        Alcotest.failf "deadline did not bound the call (%.1fs)" elapsed;
      Remote.close c)

let check_connect_deadline_bounds_retries () =
  let port = Test_durability.free_port () in
  let started = Unix.gettimeofday () in
  (match Remote.connect ~attempts:50 ~retry_delay:0.2 ~deadline:0.5 ~port () with
  | (_ : Remote.t) -> Alcotest.fail "connect to a dead port succeeded"
  | exception Remote.Remote_error msg ->
    if Remote.error_code msg <> Remote.Timeout then
      Alcotest.failf "exhausted connect deadline was not typed: %S" msg);
  let elapsed = Unix.gettimeofday () -. started in
  if elapsed > 3.0 then
    Alcotest.failf "connect retries ignored the deadline (%.1fs)" elapsed

let suite =
  [ Alcotest.test_case "token: cancel, first reason wins, never" `Quick
      check_token_basics;
    Alcotest.test_case "token: deadline expiry and layering" `Quick
      check_token_timeout;
    Alcotest.test_case "token: reason labels match wire codes" `Quick
      check_reason_labels;
    Alcotest.test_case "budget: rows scanned" `Quick check_budget_rows_scanned;
    Alcotest.test_case "budget: result rows" `Quick check_budget_result_rows;
    Alcotest.test_case "budget: result memory" `Quick check_budget_mem;
    Alcotest.test_case "timeout aborts a cross join" `Quick
      check_timeout_aborts_heavy_query;
    Alcotest.test_case "SET TIMEOUT statement" `Quick check_set_timeout_statement;
    Alcotest.test_case "cross-thread cancellation" `Quick check_cross_thread_cancel;
    Alcotest.test_case "timeout during the parallel aggregate fold" `Quick
      check_timeout_during_fold;
    Alcotest.test_case "cancelled statement journals nothing" `Quick
      check_cancel_journals_nothing;
    Alcotest.test_case "SELECT cancels at a row boundary" `Quick
      check_select_cancels_per_row;
    Alcotest.test_case "cancellation differential fuzz" `Slow check_cancel_fuzz;
    Alcotest.test_case "admission control rejects past max-sessions" `Quick
      check_admission_control;
    Alcotest.test_case "server statement timeout and SET TIMEOUT" `Quick
      check_server_statement_timeout;
    Alcotest.test_case "drain cancels in-flight statements" `Quick
      check_drain_cancels_inflight;
    Alcotest.test_case "idle drop sends a typed farewell" `Quick
      check_idle_timeout_typed;
    Alcotest.test_case "execute deadline bounds a silent server" `Quick
      check_remote_deadline;
    Alcotest.test_case "connect deadline bounds retries" `Quick
      check_connect_deadline_bounds_retries ]
