(** Either a fixed chronon or a NOW-relative time.

    A NOW-relative instant is an offset of type {!Span.t} from the special
    symbol NOW, whose interpretation changes as time advances: ["NOW-1"]
    denotes yesterday. Notation: a chronon literal, or [NOW[±span]].

    An instant is an immediate integer: its seconds (a chronon's unix
    seconds, or the offset) shifted left one bit, with bit 0 set for a
    NOW-relative instant. A scan loop may read one through [(i :> int)]:
    [land 1] is the tag, [asr 1] the seconds, and two fixed instants
    compare like their chronons. *)

type t = private int

(** The seconds an instant can hold run from [-2{^61}] to [2{^61} - 1]:
    about 73 billion years either side of 1970. *)
val min_seconds : int

val max_seconds : int

(** @raise Invalid_argument outside {!min_seconds}..{!max_seconds}. *)
val of_chronon : Chronon.t -> t

(** [of_encoding (t :> int)] is [t]: every int encodes an instant. *)
val of_encoding : int -> t

(** The symbol NOW itself. *)
val now : t

(** @raise Invalid_argument outside {!min_seconds}..{!max_seconds}. *)
val now_plus : Span.t -> t
val now_minus : Span.t -> t
val is_now_relative : t -> bool

(** [bind ~now t] substitutes [now] (the current transaction time) for the
    symbol NOW, yielding a concrete chronon. *)
val bind : now:Chronon.t -> t -> Chronon.t

(** {1 Arithmetic} *)

val add : t -> Span.t -> t
val sub : t -> Span.t -> t

(** [diff ~now a b] is the span from [b] to [a], evaluated under [now].
    When both instants are NOW-relative the result is independent of [now]. *)
val diff : now:Chronon.t -> t -> t -> Span.t

(** {1 Comparison} *)

(** Order under a NOW binding; this is how the DBMS compares instants, so
    the answer may change as time advances. *)
val compare_at : now:Chronon.t -> t -> t -> int

(** Structural equality: [NOW-1] equals [NOW-1], not yesterday's date. *)
val equal : t -> t -> bool

(** {1 Text} *)

(** Appends the literal form to a buffer; [to_string] and [pp] print
    these same bytes. *)
val to_buffer : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [None] on malformed input and on seconds outside
    {!min_seconds}..{!max_seconds}. *)
val of_string : string -> t option

(** @raise Scan.Parse_error on malformed input. *)
val of_string_exn : string -> t

(**/**)

val scan : Scan.t -> t
