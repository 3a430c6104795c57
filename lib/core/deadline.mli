(** Cooperative cancellation tokens with deadlines and resource budgets.

    A token is shared between the thread driving a statement and anyone
    who may want to stop it (a server signal handler, a shell Ctrl-C, an
    admission controller). Execution code polls [check] at batch
    boundaries; the poll is an atomic load plus, when a deadline is
    armed, a clock read — cheap enough for per-chunk granularity.

    Budgets bound what a single statement may consume before it is
    forcibly cancelled: rows read from storage, rows materialized for
    the client, and an estimate of result-set memory. Charges are atomic
    so a token can be shared across domains. *)

type reason =
  | Timeout  (** the statement deadline passed *)
  | Client_gone  (** client disconnected or interrupted (Ctrl-C) *)
  | Shutdown  (** server is draining *)
  | Budget of string  (** a resource budget was exhausted; which one *)

exception Cancelled of reason

type t

val now_ns : unit -> int
(** The process's one clock: wall-clock time in integer nanoseconds
    ([Unix.gettimeofday], so microsecond resolution). Deadlines, spans
    ({!Tip_obs.Span}) and EXPLAIN ANALYZE operator timings all read
    it. *)

val never : t
(** A shared token that is never cancelled and carries no budgets.
    [check never] is a single atomic load. Never mutate it. *)

val create :
  ?timeout_ms:int ->
  ?max_rows_scanned:int ->
  ?max_result_rows:int ->
  ?max_mem_kb:int ->
  unit ->
  t
(** Fresh token. [timeout_ms] arms a deadline that many milliseconds
    from now; omitted budgets are unlimited. *)

val is_never : t -> bool

val cancel : t -> reason -> unit
(** Request cancellation. The first reason wins; later calls are
    no-ops. Safe from any thread/domain or from a signal handler. *)

val cancelled : t -> reason option
(** Non-raising poll (also detects an expired deadline). *)

val check : t -> unit
(** Raise [Cancelled r] if the token is cancelled or past deadline. *)

val arm_timeout_if_unset : t -> int -> unit
(** [arm_timeout_if_unset t ms]: give the token a deadline [ms]
    milliseconds from now unless one is already armed. Used to layer a
    database-default statement timeout under a caller-provided token. *)

val has_deadline : t -> bool

val remaining_ms : t -> float option
(** Milliseconds until the deadline, when one is armed. *)

val has_budget : t -> bool
(** True when any resource budget is armed (fast-path gate: callers
    skip per-row cost estimation on budget-free tokens). *)

val tracks_mem : t -> bool

val charge_rows_scanned : t -> int -> unit
(** Charge [n] storage rows against the scan budget; raises
    [Cancelled (Budget _)] once the budget is exhausted. Every token but
    {!never} counts the rows, budget or not, so {!rows_scanned} is the
    statement's own tally. *)

val charge_result : t -> rows:int -> bytes:int -> unit
(** Charge materialized output against the result-row and memory
    budgets. *)

val rows_scanned : t -> int
val mem_bytes : t -> int

val reason_label : reason -> string
(** Stable machine-readable code: TIMEOUT, CANCELLED, SHUTDOWN,
    BUDGET — used as the prefix of typed [E] wire responses. *)

val reason_message : reason -> string
(** Human-oriented one-liner, prefixed by [reason_label] and a colon,
    e.g. ["TIMEOUT: statement deadline exceeded"]. *)
