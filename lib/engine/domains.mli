(** The process's domain budget and the host domains that run server
    sessions.

    The budget defaults to {!Domain.recommended_domain_count} and can be
    overridden with the [TIP_PARALLEL] environment variable;
    [TIP_PARALLEL=1] keeps everything on one domain. Sessions are the
    unit of parallelism: each statement runs on its session's domain,
    and {!on_domain} places the sessions' threads in at most {!size}
    domains, spawned on first use and reused for the life of the
    process. *)

(** Upper bound on the budget ([TIP_PARALLEL] values above it are
    clamped). *)
val max_size : int

(** The pure sizing rule: [env] is the raw [TIP_PARALLEL] value ([None]
    when unset), [recommended] the hardware parallelism. Malformed or
    non-positive overrides fall back to [recommended]; the result is
    clamped to [1, max_size]. *)
val resolve_size : env:string option -> recommended:int -> int

(** The budget currently in force: the last {!set_size}, or else
    {!resolve_size} over the real [TIP_PARALLEL] and
    {!Domain.recommended_domain_count}. *)
val size : unit -> int

(** Overrides the budget (clamped to [1, max_size]) for sessions started
    afterwards; tests use this to pin the number of domains. Host
    domains already spawned stay alive; shrinking just leaves them
    idle. *)
val set_size : int -> unit

(** [on_domain ~slot ~on_error job] runs [job] on domain [slot]
    ([0 <= slot < max_size]): slot 0 is the calling domain, where [job]
    runs at once; any other slot is a host domain, spawned on first use
    and kept for the life of the process, whose host thread runs its
    jobs in order. Jobs should be short — typically [Thread.create] of
    the real work, so that the thread lives in that domain. A job that
    raises goes through {!Tip_obs.Events.guard} (logged, counted in
    [thread_crashes_total], journaled as a [thread_crash] event), then
    [on_error] cleans up after it; the host
    lives on. On host slots the [pool.domain] failpoint fires before
    each job. *)
val on_domain : slot:int -> on_error:(exn -> unit) -> (unit -> unit) -> unit
