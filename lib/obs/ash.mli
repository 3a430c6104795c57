(** The active session history (DESIGN.md §16).

    A background sampler wakes on a fixed tick (default 100ms,
    [TIP_ASH_INTERVAL_MS]) and copies every live {!Span.session} that is
    running a statement or waiting — its id, kind, statement
    fingerprint and {!Span.ash_state} — into a bounded ring. The wait
    totals ({!Span.wait_stats}) answer "where does this server wait,
    ever"; the ring answers "what was every session doing over the last
    few minutes". It is served as the [tip_stat_ash] virtual table, one
    valid-time [PERIOD] per sample, so it windows with ordinary TIP
    period predicates. *)

type sample = {
  sa_seq : int;  (** monotonically increasing; survives eviction *)
  sa_at : float;  (** unix seconds at the tick *)
  sa_interval_ms : int;  (** tick width, for the sample's valid period *)
  sa_session : int;
  sa_kind : string;
  sa_query : string option;
  sa_state : string;  (** a wait-class label, or ["Cpu"] *)
}

val interval_ms : unit -> int
(** The tick ([TIP_ASH_INTERVAL_MS], default 100, floor 5). *)

val ring_capacity : unit -> int
(** In samples ([TIP_ASH_RING], default 4096). *)

val set_ring_capacity : int -> unit
(** Resizes and clears the ring. *)

val samples : unit -> sample list
(** The retained window, oldest first. *)

val sample_now : unit -> unit
(** One tick's sampling, run on the calling thread. *)

val clear_samples : unit -> unit

val start_sampler : unit -> unit
(** Idempotent, as is {!stop_sampler}, which also joins the thread. *)

val stop_sampler : unit -> unit
val sampler_running : unit -> bool
