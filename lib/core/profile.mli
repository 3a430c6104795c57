(** Temporal profiles: integer-valued step functions over the time line.

    A profile answers "how many facts were true at each instant" — the
    per-instant (sequenced) aggregation that plain SQL plus TIP routines
    cannot express. Notation:
    [{[1999-01-01, 1999-02-28]:1, [1999-03-01, 1999-04-30]:3}];
    zero-valued stretches are omitted. *)

type entry = { span_ : Period.ground; value : int }

(** Ascending, disjoint, non-zero entries. *)
type t

val empty : t
val entries : t -> entry list
val is_empty : t -> bool

(** {1 Construction} *)

(** Endpoint sweep over weighted ground-period sets: O(n log n) in the
    number of periods. *)
val of_weighted_ground : (Period.ground list * int) list -> t

(** Per-instant count of a collection of elements under [now]. *)
val of_elements : now:Chronon.t -> Element.t list -> t

val of_element : now:Chronon.t -> Element.t -> t

(** {1 Observation} *)

(** The step function's value (0 outside every entry). *)
val value_at : t -> Chronon.t -> int

val max_value : t -> int

(** Smallest non-zero value; 0 for the empty profile. *)
val min_nonzero : t -> int

(** Instants where the maximum is reached, as an element. *)
val argmax : t -> Element.t

(** Chronons covered with value >= threshold, as an element. *)
val at_least : t -> int -> Element.t

(** Time-weighted integral: sum of value × duration in seconds (closed
    periods counted discretely). *)
val integral : t -> int

val equal : t -> t -> bool

(** {1 Text} *)

(** Appends the literal form to a buffer; [to_string] and [pp] print
    these same bytes. *)
val to_buffer : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val of_string : string -> t option

(** @raise Scan.Parse_error on malformed input. *)
val of_string_exn : string -> t

(** Structural invariants, for tests. *)
val check_invariants : t -> bool
