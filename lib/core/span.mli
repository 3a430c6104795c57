(** A signed duration of time with one-second resolution.

    The textual notation follows the paper: [[+|-]days[ hours:minutes:seconds]].
    ["7 12:00:00"] is seven and a half days, ["-7"] is seven days back, and
    ["0 08:00:00"] is eight hours. *)

type t

val seconds_per_minute : int
val seconds_per_hour : int
val seconds_per_day : int

val zero : t

(** {1 Constructors} *)

val of_seconds : int -> t
val to_seconds : t -> int
val of_minutes : int -> t
val of_hours : int -> t
val of_days : int -> t
val of_weeks : int -> t

(** [of_dhms ~days ~hours ~minutes ~seconds] builds a span from its printed
    components. The sign of [days] gives the sign of the whole span; the
    time-of-day components must lie in their usual ranges.
    @raise Invalid_argument otherwise. *)
val of_dhms : days:int -> hours:int -> minutes:int -> seconds:int -> t

(** Whole days in the magnitude of the span. *)
val days : t -> int

val is_negative : t -> bool

(** {1 Arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val abs : t -> t
val scale_int : t -> int -> t

(** Fractional scaling, rounded to the nearest whole second. *)
val scale_float : t -> float -> t

(** [ratio a b] is the quotient [a / b] as a float.
    @raise Invalid_argument if [b] is zero. *)
val ratio : t -> t -> float

(** {1 Comparison} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

(** {1 Text} *)

(** Appends the literal form to a buffer; [to_string] and [pp] print
    these same bytes. *)
val to_buffer : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Parses the paper notation; [None] on malformed input. *)
val of_string : string -> t option

(** @raise Scan.Parse_error on malformed input. *)
val of_string_exn : string -> t

(**/**)

(** Scans a span at the cursor; used by the other literal parsers. *)
val scan : Scan.t -> t
