(** A set of periods — the general tuple timestamp of the paper.

    Notation: [{[p1], [p2], ...}], e.g.
    [{[1999-01-01, 1999-04-30], [1999-07-01, 1999-10-31]}].

    An element is stored as written — its periods may be NOW-relative,
    overlapping or out of order — in one flat block of raw instants, and
    is {e normalized} under a NOW binding into sorted, disjoint, maximal
    ground periods (adjacent periods coalesce, since time is discrete).
    All set operations run in time linear in the number of periods of
    their normalized inputs; an element that is normalized as written,
    as every result of the set algebra is, skips the normalizing sort. *)

type t

val empty : t
val of_periods : Period.t list -> t
val of_period : Period.t -> t
val of_ground_list : Period.ground list -> t
val periods : t -> Period.t list
val add_period : Period.t -> t -> t

(** Period count before normalization. *)
val raw_count : t -> int

(** [iter_bounds f t] calls [f start end_] on each period as written, in
    order, and allocates nothing. *)
val iter_bounds : (Instant.t -> Instant.t -> unit) -> t -> unit

val is_now_relative : t -> bool

(** {1 Normalization} *)

(** Sorted, disjoint, maximal ground periods under [now]. *)
val ground : now:Chronon.t -> t -> Period.ground list

(** [normalize ~now t] is [t] rewritten as ground, disjoint, sorted
    periods — the temporal {e coalesce} operation. *)
val normalize : now:Chronon.t -> t -> t

(** [coalesce_bounds ~starts ~ends n] is the normalized union of the [n]
    ground periods [[starts.(i), ends.(i)]] (unix seconds, each start no
    later than its end). The first [n] pairs are sorted by start once
    and merged in place (their contents are unspecified afterwards), and
    the result is the one array allocated. *)
val coalesce_bounds : starts:int array -> ends:int array -> int -> t

(** [bind_bounds ~now t ~starts ~ends at] binds [t]'s periods as
    written under [now] and stores the nonempty ones' bounds (unix
    seconds) at [starts.(at)], [ends.(at)] onwards, in order; returns
    the next free index. Both arrays need room for {!raw_count}[ t]
    more entries from [at]. Allocates nothing. *)
val bind_bounds :
  now:Chronon.t -> t -> starts:int array -> ends:int array -> int -> int

(** {1 Set algebra}

    Results are always normalized (and therefore ground). *)

val union : now:Chronon.t -> t -> t -> t
val intersect : now:Chronon.t -> t -> t -> t
val difference : now:Chronon.t -> t -> t -> t

(** Complement relative to a bounding period. *)
val complement : now:Chronon.t -> within:Period.t -> t -> t

val overlaps : now:Chronon.t -> t -> t -> bool

(** [contains ~now a b]: does [a] cover every chronon of [b]? *)
val contains : now:Chronon.t -> t -> t -> bool

(** The answer of {!overlap}. *)
type overlap =
  | Hit  (** nonempty fixed periods of the two share a chronon *)
  | Miss  (** no such pair under any NOW *)
  | Not_finite  (** no such pair, and a NOW-relative endpoint could make one *)

(** [overlap a b] answers {!overlaps} from the periods as written,
    without a NOW binding and without allocating: after [Hit] (or
    [Miss]), [overlaps ~now a b] is [true] (or [false]) for every [now].
    It walks [a] once per fixed period of [b], without a branch per
    period. The batch executor's [overlaps] kernel calls it once per
    row, with a constant [b] bound once (see {!normalize}). *)
val overlap : t -> t -> overlap

val contains_chronon : now:Chronon.t -> t -> Chronon.t -> bool
val contains_period : now:Chronon.t -> t -> Period.t -> bool

(** {1 Observations} *)

val is_empty : now:Chronon.t -> t -> bool

(** Number of periods after normalization. *)
val count : now:Chronon.t -> t -> int

(** Total covered duration (sum of period durations). *)
val length : now:Chronon.t -> t -> Span.t

(** Start of the first period, as used in the paper's queries. *)
val start : now:Chronon.t -> t -> Chronon.t option

(** End of the last period. *)
val end_ : now:Chronon.t -> t -> Chronon.t option

val first : now:Chronon.t -> t -> Period.t option
val last : now:Chronon.t -> t -> Period.t option

(** Smallest single period covering the whole element. *)
val extent : now:Chronon.t -> t -> Period.t option

(** Set equality under a NOW binding. *)
val equal_at : now:Chronon.t -> t -> t -> bool

(** Structural equality of the written representation. *)
val equal : t -> t -> bool

(** {1 Ground-level algebra}

    Exposed for testing; inputs must be sorted, disjoint
    and maximal (as produced by {!ground}). *)

val ground_union : Period.ground list -> Period.ground list -> Period.ground list
val ground_intersect :
  Period.ground list -> Period.ground list -> Period.ground list
val ground_difference :
  Period.ground list -> Period.ground list -> Period.ground list
val ground_overlaps : Period.ground list -> Period.ground list -> bool
val ground_length : Period.ground list -> Span.t

(** {1 Text} *)

(** Appends the literal form to a buffer; [to_string] and [pp] print
    these same bytes. *)
val to_buffer : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val of_string : string -> t option

(** @raise Scan.Parse_error on malformed input. *)
val of_string_exn : string -> t

(**/**)

val scan : Scan.t -> t
