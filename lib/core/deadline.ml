(* Cooperative cancellation: an atomic flag plus an optional deadline
   and optional resource budgets, polled by the executor at batch
   boundaries.

   The deadline is wall-clock ([Unix.gettimeofday], through [now_ns],
   the clock every span reads too — there is no monotonic-clock
   dependency in this tree).
   A backwards clock step can therefore extend a deadline; that is an
   accepted trade-off for a zero-dependency implementation, and the
   budgets (which count work, not time) are unaffected.

   Everything here must be safe from other domains and from signal
   handlers: the flag is an [Atomic.t] and [cancel] is a single
   compare-and-set, so a Ctrl-C handler may call it directly. *)

type reason = Timeout | Client_gone | Shutdown | Budget of string

exception Cancelled of reason

type t = {
  flag : reason option Atomic.t;
  mutable deadline_ns : int;  (* max_int = no deadline; written only by
                                 the owning thread before execution *)
  mutable clock_tick : int;
      (* rate-limits deadline clock reads: without vDSO a gettimeofday
         is a real syscall, and paying one per executor poll costs a few
         percent of a scan. Races on this counter are benign — a missed
         increment only shifts the sampling cadence. *)
  max_rows_scanned : int;
  max_result_rows : int;
  max_mem_bytes : int;
  rows_scanned : int Atomic.t;
  result_rows : int Atomic.t;
  mem_bytes : int Atomic.t;
  has_budget : bool;
}

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let make ?timeout_ms ?(max_rows_scanned = max_int) ?(max_result_rows = max_int)
    ?(max_mem_kb = 0) () =
  let max_mem_bytes =
    if max_mem_kb <= 0 then max_int else max_mem_kb * 1024
  in
  {
    flag = Atomic.make None;
    deadline_ns =
      (match timeout_ms with
      | Some ms when ms > 0 -> now_ns () + (ms * 1_000_000)
      | _ -> max_int);
    clock_tick = 0;
    max_rows_scanned;
    max_result_rows;
    max_mem_bytes;
    rows_scanned = Atomic.make 0;
    result_rows = Atomic.make 0;
    mem_bytes = Atomic.make 0;
    has_budget =
      max_rows_scanned <> max_int || max_result_rows <> max_int
      || max_mem_bytes <> max_int;
  }

let never = make ()
let is_never t = t == never

let create ?timeout_ms ?max_rows_scanned ?max_result_rows ?max_mem_kb () =
  make ?timeout_ms ?max_rows_scanned ?max_result_rows ?max_mem_kb ()

let cancel t reason =
  if not (is_never t) then
    ignore (Atomic.compare_and_set t.flag None (Some reason))

(* Amortized deadline test for the hot poll path: only every 16th call
   reads the clock (the first call does too, catching deadlines that
   expired before execution began). At 256-row poll granularity this
   bounds expiry detection to a few thousand rows past the deadline —
   well inside any millisecond-scale timeout. *)
let past_deadline t =
  t.deadline_ns <> max_int
  &&
  let n = t.clock_tick in
  t.clock_tick <- n + 1;
  n land 15 = 0 && now_ns () > t.deadline_ns

let cancelled t =
  match Atomic.get t.flag with
  | Some _ as r -> r
  | None ->
      if past_deadline t then begin
        cancel t Timeout;
        Atomic.get t.flag
      end
      else None

let check t =
  match Atomic.get t.flag with
  | Some r -> raise (Cancelled r)
  | None ->
      if past_deadline t then begin
        cancel t Timeout;
        match Atomic.get t.flag with
        | Some r -> raise (Cancelled r)
        | None -> ()
      end

let arm_timeout_if_unset t ms =
  if (not (is_never t)) && t.deadline_ns = max_int && ms > 0 then
    t.deadline_ns <- now_ns () + (ms * 1_000_000)

let has_deadline t = t.deadline_ns <> max_int

let remaining_ms t =
  if t.deadline_ns = max_int then None
  else Some (float_of_int (t.deadline_ns - now_ns ()) /. 1e6)

let has_budget t = t.has_budget
let tracks_mem t = t.max_mem_bytes <> max_int

let exhaust t what =
  cancel t (Budget what);
  check t

(* Counted on every token but [never] (one atomic add per scan or
   chunk), so a statement's own scan tally is known without a budget. *)
let charge_rows_scanned t n =
  if n > 0 && not (is_never t) then begin
    let total = Atomic.fetch_and_add t.rows_scanned n + n in
    if total > t.max_rows_scanned then
      exhaust t
        (Printf.sprintf "max_rows_scanned=%d exceeded" t.max_rows_scanned)
  end

let charge_result t ~rows ~bytes =
  if t.has_budget then begin
    (if rows > 0 then
       let total = Atomic.fetch_and_add t.result_rows rows + rows in
       if total > t.max_result_rows then
         exhaust t
           (Printf.sprintf "max_result_rows=%d exceeded" t.max_result_rows));
    if bytes > 0 then
      let total = Atomic.fetch_and_add t.mem_bytes bytes + bytes in
      if total > t.max_mem_bytes then
        exhaust t
          (Printf.sprintf "max_mem_kb=%d exceeded" (t.max_mem_bytes / 1024))
  end

let rows_scanned t = Atomic.get t.rows_scanned
let result_rows t = Atomic.get t.result_rows
let mem_bytes t = Atomic.get t.mem_bytes

let reason_label = function
  | Timeout -> "TIMEOUT"
  | Client_gone -> "CANCELLED"
  | Shutdown -> "SHUTDOWN"
  | Budget _ -> "BUDGET"

let reason_message r =
  match r with
  | Timeout -> "TIMEOUT: statement deadline exceeded"
  | Client_gone -> "CANCELLED: statement cancelled by client"
  | Shutdown -> "SHUTDOWN: server is shutting down"
  | Budget what -> "BUDGET: " ^ what
