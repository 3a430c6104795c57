(** The extensibility interface — the stand-in for Informix's DataBlade
    API.

    A blade installs, against one database: scalar routines (overloaded
    by argument type), operator overloads (the same mechanism, keyed by
    the operator symbol), casts (implicit or explicit, with a resolution
    cost), user-defined aggregates, and planner hints. Datatypes
    themselves register globally in {!Tip_storage.Value}; everything here
    is per-database state, mirroring how a DataBlade installs into one
    Informix database. *)

open Tip_storage

(** Parameter types for overload matching. *)
type ptype =
  | P_int
  | P_float  (** also accepts ints, at widening cost 1 *)
  | P_bool
  | P_string
  | P_date
  | P_ext of string  (** a registered extension type, by canonical name *)
  | P_any

type routine = {
  params : ptype list;
  strict : bool;
      (** strict routines return NULL without running on any NULL input *)
  impl : now:Tip_core.Chronon.t -> Value.t array -> Value.t;
      (** [now] is the statement's transaction time *)
}

type cast = {
  cast_to : string;
  implicit : bool;
      (** implicit casts participate in overload resolution; explicit
          ones require [expr::Type] *)
  cast_cost : int;
      (** resolution cost; longer widening chains cost more so that e.g.
          chronon→instant is preferred over chronon→element *)
  cast_impl : now:Tip_core.Chronon.t -> Value.t -> Value.t;
}

(** One statement's state of an aggregate, over every group at once.
    Groups are dense ids from 0, numbered in first-appearance order. *)
type grouped = {
  step : int -> Value.t -> unit;
      (** [step gid v] folds [v] into group [gid]. NULL inputs are
          skipped by the executor, so a group may never be stepped, and
          ids may arrive in any order. *)
  final : int -> Value.t;
      (** [final gid], once per group after its last step: the result
          ([gid] may never have been stepped, e.g. the one group of a
          grand aggregate over no rows). *)
}

(** A user aggregate. [create ~now] runs once per statement, with the
    statement's NOW; the executor steps each group with its inputs in
    input order, on one domain, so the state may be mutated in place. *)
type aggregate = { create : now:Tip_core.Chronon.t -> grouped }

(** The Informix INIT/ITER/FINAL shape as an {!aggregate}: one
    accumulator per group, seeded by [init ()], replaced by
    [step ~now acc v] on every input and read by [final ~now acc]. *)
val fold_aggregate :
  init:(unit -> Value.t) ->
  step:(now:Tip_core.Chronon.t -> Value.t -> Value.t -> Value.t) ->
  final:(now:Tip_core.Chronon.t -> Value.t -> Value.t) ->
  aggregate

(** [reserve col gid fill] makes room for slot [gid] in the gid-indexed
    column [col], at least doubling it; the new slots hold [fill]. *)
val reserve : 'a array ref -> int -> 'a -> unit

(** Transaction-time support, registered by a temporal blade: how to
    create, close and probe the tuple timestamps of WITH HISTORY shadow
    tables. *)
type history_support = {
  timestamp_type : string;
      (** column type of the shadow table's [_tt] column *)
  open_timestamp : now:Tip_core.Chronon.t -> Value.t;
      (** timestamp of a freshly current row, e.g. [{[now, NOW]}] *)
  close_timestamp : now:Tip_core.Chronon.t -> Value.t -> Value.t;
      (** clip an open timestamp when the row stops being current *)
  is_open : Value.t -> bool;
  timestamp_contains :
    now:Tip_core.Chronon.t -> Value.t -> Tip_core.Chronon.t -> bool;
      (** AS OF probe: was the row current at the instant? *)
}

type t

exception Resolution_error of string

val create : unit -> t

(** {1 Registration} *)

(** @raise Invalid_argument if this exact signature is already present. *)
val register_routine :
  t ->
  name:string ->
  params:ptype list ->
  ?strict:bool ->
  (now:Tip_core.Chronon.t -> Value.t array -> Value.t) ->
  unit

val register_cast :
  t ->
  from_type:string ->
  to_type:string ->
  ?implicit:bool ->
  ?cost:int ->
  (now:Tip_core.Chronon.t -> Value.t -> Value.t) ->
  unit

(** @raise Invalid_argument on duplicate aggregate name. *)
val register_aggregate : t -> name:string -> aggregate -> unit

(** Declares that [name(column, constant)] can be answered from an
    interval index on the column, with an exact recheck. *)
val register_interval_sargable : t -> name:string -> unit

(** Teaches the engine to read a chronon out of a blade value (used by
    SET NOW, AS OF and DATE coercions). A NOW-relative value binds to
    the [now] the caller passes: its statement's NOW. *)
val register_chronon_extractor :
  t ->
  (now:Tip_core.Chronon.t -> Value.t -> Tip_core.Chronon.t option) ->
  unit

(** Enables [CREATE TABLE ... WITH HISTORY] and [FROM t AS OF ...]. *)
val register_history_support : t -> history_support -> unit

val history_support : t -> history_support option

(** {1 Lookup and resolution} *)

val find_aggregate : t -> string -> aggregate option
val is_aggregate : t -> string -> bool
val is_interval_sargable : t -> string -> bool
val find_implicit_cast : t -> from_type:string -> to_type:string -> cast option
val to_chronon :
  t -> now:Tip_core.Chronon.t -> Value.t -> Tip_core.Chronon.t option

(** Resolves the cheapest overload of [name] for the argument values
    (exact match 0, int→float widening 1, implicit casts at their
    registered cost) and applies it. Strict routines short-circuit to
    NULL on NULL arguments.
    @raise Resolution_error on no match or an ambiguous tie. *)
val apply_routine :
  t -> now:Tip_core.Chronon.t -> name:string -> Value.t array -> Value.t

(** A per-call-site applier for [name] with inline caches: overload
    resolution is reused while the argument type names repeat, and cast
    outputs are reused while the input value is physically the same — so
    a literal argument (one shared value per compiled statement) casts
    once, not once per row. The argument array is passed to the routine
    as it is when no argument needs a cast. Create a fresh caller per
    compilation site; the cast cache assumes [now] does not change
    across calls.
    @raise Resolution_error on no match or an ambiguous tie. *)
val caller :
  t -> name:string -> now:Tip_core.Chronon.t -> Value.t array -> Value.t

(** One call site's memory of its last cast. A site casts to one
    target type, so give every site its own. *)
type cast_cache

val cast_cache : unit -> cast_cache

(** [cached_cast t cache ~now v ~to_type] applies a registered cast
    ([expr::Type]); identity casts succeed trivially, NULL passes
    through. The cast found for [v]'s type name is reused while that
    name repeats.
    @raise Resolution_error when no cast exists. *)
val cached_cast :
  t -> cast_cache -> now:Tip_core.Chronon.t -> Value.t -> to_type:string -> Value.t
