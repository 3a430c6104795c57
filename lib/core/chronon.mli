(** A specific point in time at one-second granularity.

    Chronons live on the proleptic Gregorian calendar and are notated
    [yyyy-mm-dd[ hh:mm:ss]]; the time-of-day part is omitted when printing
    midnight values. *)

type t

(** 1970-01-01 00:00:00. *)
val epoch : t

(** {1 Construction} *)

(** [of_civil] builds a chronon from civil-calendar components.
    @raise Invalid_argument when a component is out of range (e.g. Feb 30). *)
val of_civil :
  year:int -> month:int -> day:int -> hour:int -> minute:int -> second:int -> t

(** [of_ymd y m d] is midnight on the given day. *)
val of_ymd : int -> int -> int -> t

(** Decomposes into [(year, month, day, hour, minute, second)]. *)
val to_civil : t -> int * int * int * int * int * int

val year : t -> int

(** Midnight of the chronon's civil day. *)
val start_of_day : t -> t

val of_unix_seconds : int -> t
val to_unix_seconds : t -> int

(** {1 Calendar helpers} *)

val is_leap_year : int -> bool

(** @raise Invalid_argument for months outside 1..12. *)
val days_in_month : int -> int -> int

(** {1 Arithmetic} *)

val add : t -> Span.t -> t
val sub : t -> Span.t -> t

(** [diff a b] is the span from [b] to [a]. *)
val diff : t -> t -> Span.t

(** Next/previous chronon (one second away). *)
val succ : t -> t

val pred : t -> t

(** {1 Comparison} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val hash : t -> int

(** {1 Text} *)

(** Appends the literal form to a buffer; [to_string] and [pp] print
    these same bytes. *)
val to_buffer : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit
val to_string : t -> string
val of_string : string -> t option

(** @raise Scan.Parse_error on malformed input. *)
val of_string_exn : string -> t
