(** Table schemas: column names, types and constraints.

    Base types are built in; any other type name in DDL is resolved
    against the datatype registry, so installing a DataBlade is exactly
    what makes [CREATE TABLE ... (valid Element)] legal. *)

type col_type =
  | T_int
  | T_float
  | T_bool
  | T_char of int option  (** CHAR(n)/VARCHAR(n); [None] is unbounded TEXT *)
  | T_date
  | T_ext of string  (** canonical registered extension type name *)

type column = {
  name : string;  (** stored lowercased; SQL identifiers fold case *)
  ty : col_type;
  not_null : bool;
  primary_key : bool;
}

type t = { table_name : string; columns : column array }

exception Schema_error of string

(** Resolves a DDL type name ([INT], [CHAR] with [?param], [DATE], or a
    registered extension type).
    @raise Schema_error for unknown names. *)
val type_of_name : ?param:int -> string -> col_type

(** Canonical display name of a column type. *)
val type_name : col_type -> string

(** [primary_key] implies [not_null]. *)
val make_column :
  ?not_null:bool -> ?primary_key:bool -> string -> col_type -> column

(** @raise Schema_error on duplicate column names or an empty column
    list. *)
val make : table_name:string -> column list -> t

val arity : t -> int
val columns : t -> column list
val column : t -> int -> column

(** Case-insensitive column lookup. *)
val column_index : t -> string -> int option

(** @raise Schema_error when the column does not exist. *)
val column_index_exn : t -> string -> int

(** Position of the primary-key column, if declared. *)
val primary_key_index : t -> int option

(** Normalizes a value into the column type (widens ints in float
    columns, truncates over-width CHAR(n)); [None] on mismatch. *)
val coerce : col_type -> Value.t -> Value.t option

val pp : Format.formatter -> t -> unit

(**/**)

val schema_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
