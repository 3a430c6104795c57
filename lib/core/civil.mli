(** The proleptic Gregorian calendar on unix seconds, and the printed
    form of a date: what the date scanner and printers share. *)

val is_leap_year : int -> bool

(** @raise Invalid_argument for months outside 1..12. *)
val days_in_month : int -> int -> int

(** Unix seconds of a civil date and time of day.
    @raise Invalid_argument naming the first component out of range. *)
val seconds :
  year:int -> month:int -> day:int -> hour:int -> minute:int -> second:int -> int

(** Floor division by a day: the day number of unix seconds. *)
val day_of : int -> int

(** [(year, month, day, hour, minute, second)] of unix seconds. *)
val to_civil : int -> int * int * int * int * int * int

(** [add_date b t] appends [t] as [yyyy-mm-dd], plus [" hh:mm:ss"] off
    midnight. *)
val add_date : Buffer.t -> int -> unit
