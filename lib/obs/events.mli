(** The structured event journal (DESIGN.md §16): a persistent,
    append-only record of the rare-but-load-bearing lifecycle events —
    checkpoints, backups, recovery, promotion, epoch changes, fencing —
    each stamped with a unix instant, so a post-incident timeline is
    one [SELECT * FROM tip_stat_events] away.

    Events always land in a bounded in-memory window; when a journal
    file is attached (a durable database attaches
    [<dir>/events.log] on open) they are also appended there and the
    existing tail is reloaded, so the timeline survives restarts. *)

type event = {
  ev_seq : int;
  ev_at : float;  (** unix seconds *)
  ev_kind : string;
      (** ["checkpoint"], ["backup"], ["recovery"], ["promotion"],
          ["epoch_change"], ["fenced"], ... *)
  ev_detail : string;
}

(** Attaches (or with [None], detaches) the journal file. Reloads any
    events already recorded in it, newest [window] retained. *)
val set_journal : string option -> unit

val journal_path : unit -> string option

(** Appends an event: into memory, and into the journal when attached.
    Never raises — a full disk degrades to memory-only. *)
val record : kind:string -> detail:string -> unit

(** The retained window, oldest first. *)
val events : unit -> event list

(** Drops the in-memory window and detaches the journal (tests). *)
val reset : unit -> unit

(** {1 Supervised threads} *)

val guard : name:string -> ?on_crash:(exn -> unit) -> (unit -> unit) -> unit
(** [guard ~name f] runs [f] on the calling thread. An exception that
    escapes it is logged, counted in [thread_crashes_total] and
    journaled as a [thread_crash] event (["<name>: <exception>"]); then
    [on_crash] cleans up after it, and [guard] returns. *)

val spawn : name:string -> ?on_crash:(exn -> unit) -> (unit -> unit) -> Thread.t
(** [Thread.create] of {!guard}: the one way this code base starts a
    thread. *)
