(** A lazily-initialized, reusable fixed-size pool of OCaml 5 domains
    for intra-query parallelism.

    The pool size defaults to {!Domain.recommended_domain_count} and can
    be overridden with the [TIP_PARALLEL] environment variable;
    [TIP_PARALLEL=1] forces the sequential path. The size is the
    process's domain budget: worker threads live in host domains
    spawned on first use and reused for the life of the process (they
    hold no query state between batches), and {!on_domain} places other
    threads (the server's sessions) in the same domains.

    Batches run on the pool only while one statement executes
    ({!with_statement} counts them): a lone statement gets every domain,
    and statements running side by side (server sessions on their own
    domains) each run their batches on their own domain. Workers check
    again before each task, so a batch already running when a second
    statement starts is finished by its caller alone. Tasks must not
    submit nested batches. *)

(** Upper bound on the pool size ([TIP_PARALLEL] values above it are
    clamped). *)
val max_size : int

(** The pure sizing rule: [env] is the raw [TIP_PARALLEL] value ([None]
    when unset), [recommended] the hardware parallelism. Malformed or
    non-positive overrides fall back to [recommended]; the result is
    clamped to [1, max_size]. *)
val resolve_size : env:string option -> recommended:int -> int

(** The size the environment asks for ({!resolve_size} over the real
    [TIP_PARALLEL] and {!Domain.recommended_domain_count}). *)
val default_size : unit -> int

(** The pool size currently in force: the last {!set_size}, or
    {!default_size}. *)
val size : unit -> int

(** Overrides the pool size (clamped to [1, max_size]) for subsequent
    batches — the bench harness and tests use this to compare sequential
    and parallel execution in one process. Workers already spawned stay
    alive; shrinking just leaves them idle. *)
val set_size : int -> unit

(** [size () <= 1]: callers should not attempt parallel execution. *)
val sequential : unit -> bool

(** [with_statement f] runs [f] counted as one executing statement. *)
val with_statement : (unit -> 'a) -> 'a

(** Whether a batch submitted now would run on the pool: [size () > 1]
    and at most one statement is executing. *)
val engaged : unit -> bool

(** [on_domain ~slot ~on_error job] runs [job] on domain [slot]
    ([0 <= slot < max_size]): slot 0 is the calling domain, where [job]
    runs at once; any other slot is a host domain, spawned on first use
    and kept for the life of the process, whose host thread runs its
    jobs in order. Each host domain also runs one of the pool's worker
    threads, so pool workers and the jobs' threads share {!size} domains
    rather than adding to them. Jobs should be short — typically
    [Thread.create] of the real work, so that the thread lives in that
    domain. A job that raises is logged, counted
    ([thread_crashes_total]) and journaled as a [thread_crash] event,
    then [on_error] cleans up after it; the host lives on. On host
    slots the [pool.domain] failpoint fires before each job. *)
val on_domain : slot:int -> on_error:(exn -> unit) -> (unit -> unit) -> unit

(** Runs the thunks to completion, in parallel across the pool when
    {!engaged} (the calling domain participates), and returns their
    results in input order. If any thunk raises, the first exception (in
    input order) is re-raised after all tasks finish. Must not be called
    from within a task.

    When [token] is supplied, tasks still queued after the token is
    cancelled are skipped (they fail with [Deadline.Cancelled] without
    executing), so a cancelled batch ends within one task's worth of
    work. *)
val run : ?token:Tip_core.Deadline.t -> (unit -> 'a) list -> 'a list
