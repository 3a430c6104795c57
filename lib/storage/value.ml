(* Runtime values, including user-defined (DataBlade) types.

   The base universe mirrors what a plain relational engine offers —
   integers, floats, booleans, strings and SQL's DATE. Everything else
   enters through [Ext (type_name, payload)], where the payload lives in
   an OCaml extensible variant: an extension (such as the TIP blade)
   declares new payload constructors and registers a vtable for its type
   name, and the engine dispatches on the name without ever knowing the
   concrete representation. This is the moral equivalent of Informix's
   opaque-type registration. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string
  | Date of Tip_core.Chronon.t (* midnight chronon; SQL's plain DATE *)
  | Ext of string * ext

and ext = ..

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

(* --- Datatype registry ---------------------------------------------- *)

type overlap = Tip_core.Element.overlap = Hit | Miss | Not_finite

type vtable = {
  parse : string -> t;
    (* from a SQL string literal; raises Type_error on bad input *)
  print : Buffer.t -> t -> unit;
    (* appends the display / literal form; must round-trip *)
  compare : (t -> t -> int) option; (* total order, when the type has one *)
  extents : (t -> (int * int) list) option;
    (* conservative [lo, hi] bounds in seconds on the chronons the value
       covers — one entry per period for set-valued timestamps, with int
       bounds standing in for ±infinity when an endpoint is NOW-relative;
       enables interval indexing *)
  overlaps : (t -> t -> overlap) option;
    (* the type's [overlaps] routine on two of its values, answered
       without allocating when no NOW binding can change the answer
       ([Not_finite] otherwise); the batch [overlaps] kernel resolves it
       once per predicate and calls it per row *)
}

let registry : (string, vtable) Hashtbl.t = Hashtbl.create 16

let canonical_type_name name = String.lowercase_ascii name

let register_type ~name vtable =
  let key = canonical_type_name name in
  if Hashtbl.mem registry key then
    invalid_arg (Printf.sprintf "Value.register_type: %s already registered" key);
  Hashtbl.replace registry key vtable

(* [Ext] names are canonical by construction, so the stored name hits
   and only another spelling pays for a lowercase copy. *)
let lookup_type name =
  match Hashtbl.find_opt registry name with
  | Some _ as found -> found
  | None -> Hashtbl.find_opt registry (canonical_type_name name)

(* --- Observers -------------------------------------------------------- *)

let type_name = function
  | Null -> "null"
  | Int _ -> "int"
  | Float _ -> "float"
  | Bool _ -> "boolean"
  | Str _ -> "char"
  | Date _ -> "date"
  | Ext (name, _) -> name

let is_null = function Null -> true | _ -> false

(* Allocation-free on the common path: ordering, equality, hashing and
   printing of every extension value come through here. *)
let vtable_of_ext name =
  match Hashtbl.find registry name with
  | vt -> vt
  | exception Not_found -> (
    match lookup_type name with
    | Some vt -> vt
    | None -> type_error "unregistered extension type %s" name)

(* The one printer, behind the wire codec and [to_display_string]. *)
let to_buffer b = function
  | Null -> Buffer.add_string b "NULL"
  | Int n -> Tip_core.Digits.add_int b n
  | Float f -> Buffer.add_string b (Printf.sprintf "%g" f)
  | Bool x -> Buffer.add_char b (if x then 't' else 'f')
  | Str s -> Buffer.add_string b s
  | Date c -> Tip_core.Chronon.to_buffer b c
  | Ext (name, _) as v -> (vtable_of_ext name).print b v

let to_display_string = function
  | Str s -> s
  | v ->
    let b = Buffer.create 32 in
    to_buffer b v;
    Buffer.contents b

let pp ppf v = Fmt.string ppf (to_display_string v)

(* --- Ordering and equality -------------------------------------------- *)

(* Rank for ordering across base constructors; NULL sorts first (the
   executor handles three-valued logic before we get here, but ORDER BY
   still needs a total order over whole columns). *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ -> 3
  | Date _ -> 4
  | Ext _ -> 5

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Bool x, Bool y -> Bool.compare x y
  | Str x, Str y -> String.compare x y
  | Date x, Date y -> Tip_core.Chronon.compare x y
  | Ext (n1, _), Ext (n2, _) when String.equal n1 n2 ->
    (match (vtable_of_ext n1).compare with
    | Some cmp -> cmp a b
    | None -> type_error "type %s has no ordering" n1)
  | _, _ ->
    let r1 = rank a and r2 = rank b in
    if r1 <> r2 then Int.compare r1 r2
    else type_error "cannot compare %s with %s" (type_name a) (type_name b)

let equal a b =
  match a, b with
  | Int x, Int y -> Int.equal x y
  | Str x, Str y -> String.equal x y
  | Ext (n1, _), Ext (n2, _) when not (String.equal n1 n2) -> false
  | Ext (n, _), Ext (_, _) -> (
    (* Same extension type: use its ordering when it has one, otherwise
       fall back to printed-form equality (consistent with [hash]). *)
    match (vtable_of_ext n).compare with
    | Some cmp -> cmp a b = 0
    | None ->
      String.equal (to_display_string a) (to_display_string b))
  | Ext _, (Null | Int _ | Float _ | Bool _ | Str _ | Date _)
  | (Null | Int _ | Float _ | Bool _ | Str _ | Date _), _ -> (
    match compare a b with
    | c -> c = 0
    | exception Type_error _ -> false)

let hash v =
  match v with
  | Null -> 0
  | Int n -> Hashtbl.hash n
  (* Integral floats must hash like ints, since compare treats 1 = 1.0. *)
  | Float f when Float.is_integer f && Float.abs f < 1e18 ->
    Hashtbl.hash (int_of_float f)
  | Float f -> Hashtbl.hash f
  | Bool b -> Hashtbl.hash b
  | Str s -> Hashtbl.hash s
  | Date c -> Tip_core.Chronon.hash c
  | Ext (name, _) -> Hashtbl.hash (name, to_display_string v)

(* Conservative chronon extents, for interval indexes: one [lo, hi]
   entry per covered period. *)
let extents v =
  match v with
  | Date c ->
    let s = Tip_core.Chronon.to_unix_seconds c in
    [ (s, s) ]
  | Ext (name, _) -> (
    match (vtable_of_ext name).extents with
    | Some f -> f v
    | None -> [])
  | Null | Int _ | Float _ | Bool _ | Str _ -> []

(* The single bounding extent (for index probes). *)
let extent v =
  match extents v with
  | [] -> None
  | (lo, hi) :: rest ->
    Some
      (List.fold_left
         (fun (alo, ahi) (lo, hi) -> (Stdlib.min alo lo, Stdlib.max ahi hi))
         (lo, hi) rest)

(* --- Numeric coercions ------------------------------------------------ *)

let to_int = function
  | Int n -> n
  | Float f when Float.is_integer f -> int_of_float f
  | v -> type_error "expected int, got %s" (type_name v)

let to_float = function
  | Int n -> float_of_int n
  | Float f -> f
  | v -> type_error "expected float, got %s" (type_name v)

let to_bool = function
  | Bool b -> b
  | v -> type_error "expected boolean, got %s" (type_name v)

let to_string_value = function
  | Str s -> s
  | v -> type_error "expected string, got %s" (type_name v)

let to_date = function
  | Date c -> c
  | v -> type_error "expected date, got %s" (type_name v)
