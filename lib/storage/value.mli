(** Runtime values, including user-defined (DataBlade) types.

    The base universe mirrors a plain relational engine: integers,
    floats, booleans, strings and SQL's DATE. User-defined types enter
    through {!Ext}[(type_name, payload)] where the payload lives in the
    OCaml extensible variant {!ext}: an extension declares constructors
    and registers a {!vtable} for its type name, and the engine
    dispatches by name without knowing the representation — the moral
    equivalent of Informix's opaque-type registration. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | Date of Tip_core.Chronon.t  (** midnight chronon; SQL's plain DATE *)
  | Ext of string * ext
      (** [(canonical type name, payload)]; the name must be registered *)

and ext = ..

exception Type_error of string

(** {1 Datatype registry} *)

(** The answer of a type's NOW-free overlap test ({!vtable.overlaps}). *)
type overlap = Tip_core.Element.overlap = Hit | Miss | Not_finite

type vtable = {
  parse : string -> t;
      (** build a value from a SQL string literal; raises {!Type_error}
          on malformed input *)
  print : Buffer.t -> t -> unit;
      (** appends the display / literal form, which must round-trip
          through [parse]; the wire codec prints each row with it *)
  compare : (t -> t -> int) option;
      (** a NOW-independent total order, when the type has one (types
          whose order moves with NOW must leave this [None] and register
          comparison operators with the engine instead) *)
  extents : (t -> (int * int) list) option;
      (** conservative [lo, hi] second bounds on the chronons the value
          covers, one entry per period for set-valued timestamps, with
          [min_int]/[max_int] for NOW-relative endpoints; enables
          interval indexing *)
  overlaps : (t -> t -> overlap) option;
      (** the type's [overlaps] routine on two of its values, answered
          without allocating: [Hit] or [Miss] when no NOW binding can
          change the answer, [Not_finite] to send the caller to the
          routine. The batch [overlaps] kernel resolves it once per
          predicate. *)
}

(** Registers a datatype under a (case-insensitive) name.
    @raise Invalid_argument if the name is taken. *)
val register_type : name:string -> vtable -> unit

val lookup_type : string -> vtable option
val canonical_type_name : string -> string

(** {1 Observers} *)

(** The value's type name: ["int"], ["char"], ["date"], ... or the
    registered extension name. *)
val type_name : t -> string

val is_null : t -> bool

(** Appends the display form: {!vtable.print} for extension values,
    else [NULL], ["%d"], ["%g"], [t]/[f], the string, or [yyyy-mm-dd]. *)
val to_buffer : Buffer.t -> t -> unit

(** {!to_buffer}'s bytes as a string. *)
val to_display_string : t -> string

val pp : Format.formatter -> t -> unit

(** {1 Ordering, equality, hashing}

    [compare] is a total order across kinds (NULL first, then booleans,
    numbers, strings, dates, extension values) so ORDER BY always works;
    only same-kind incomparabilities (two different extension types, or
    an extension type without an order) raise {!Type_error}. [equal] and
    [hash] are consistent with each other, including [Int]/[Float]
    equality and printed-form fallback for orderless extension types. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

(** {1 Interval-index support} *)

(** Conservative chronon extents, one per covered period; [[]] when the
    value has no temporal extent. *)
val extents : t -> (int * int) list

(** The single bounding extent (for index probes); [None] when empty. *)
val extent : t -> (int * int) option

(** {1 Checked coercions}

    All raise {!Type_error} on mismatch. *)

val to_int : t -> int
val to_float : t -> float
val to_bool : t -> bool
val to_string_value : t -> string
val to_date : t -> Tip_core.Chronon.t

(**/**)

val type_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
