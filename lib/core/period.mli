(** A pair of instants bounding a closed interval [start, end] of chronons.

    Either endpoint may be NOW-relative (["[1999-01-01, NOW]"] is "since
    1999"), so most observations take a [~now] binding. A period whose
    bound start exceeds its bound end denotes the empty set of chronons. *)

(** The endpoints as written. The record is [private]: scan loops
    elsewhere (see {!Element.overlap}) read both instants without a call,
    but periods are built only through the functions below. *)
type t = private { start_ : Instant.t; end_ : Instant.t }

(** A period with both endpoints bound: [(start, end)] with start <= end. *)
type ground = Chronon.t * Chronon.t

(** {1 Construction} *)

val make : start_:Instant.t -> end_:Instant.t -> t
val of_instants : Instant.t -> Instant.t -> t
val of_chronons : Chronon.t -> Chronon.t -> t

(** The period containing exactly one chronon. *)
val of_chronon : Chronon.t -> t

(** [since c] is [[c, NOW]]. *)
val since : Chronon.t -> t

(** [past s] is [[NOW-s, NOW]], e.g. "during the past week". *)
val past : Span.t -> t

val of_ground : ground -> t

(** {1 Accessors} *)

val start_instant : t -> Instant.t
val end_instant : t -> Instant.t
val is_now_relative : t -> bool

(** [ground ~now t] binds both endpoints; [None] if the result is empty. *)
val ground : now:Chronon.t -> t -> ground option

val is_empty : now:Chronon.t -> t -> bool
val start_at : now:Chronon.t -> t -> Chronon.t option
val end_at : now:Chronon.t -> t -> Chronon.t option

(** Span from start to end; [None] for empty periods. *)
val duration : now:Chronon.t -> t -> Span.t option

(** {1 Predicates and operations} *)

val contains_chronon : now:Chronon.t -> t -> Chronon.t -> bool
val overlaps : now:Chronon.t -> t -> t -> bool

(** [contains_period ~now a b]: does [a] cover every chronon of [b]? *)
val contains_period : now:Chronon.t -> t -> t -> bool

(** Intersection as a ground period; [None] when disjoint or empty. *)
val intersect : now:Chronon.t -> t -> t -> t option

(** Smallest single period covering both arguments. *)
val span_of : now:Chronon.t -> t -> t -> t option

val ground_overlaps : ground -> ground -> bool

(** {1 Equality} *)

(** Structural equality of the representation (NOW kept symbolic). *)
val equal : t -> t -> bool

(** Set equality under a NOW binding. *)
val equal_at : now:Chronon.t -> t -> t -> bool

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
