(* TIP's five datatypes as engine values.

   This module extends the storage layer's value universe with payload
   constructors for Chronon, Span, Instant, Period and Element, and
   registers their vtables (literal parsing, printing, ordering, index
   extents) in the global datatype registry — the "new datatypes" half of
   the DataBlade. The routines/casts/operators half lives in {!Blade}. *)

open Tip_core
open Tip_storage

type Value.ext +=
  | V_chronon of Chronon.t
  | V_span of Span.t
  | V_instant of Instant.t
  | V_period of Period.t
  | V_element of Element.t
  | V_profile of Profile.t
      (* the sixth type: per-instant aggregation results (E12/E13) *)

(* Canonical type names. *)
let chronon_type = "chronon"
let span_type = "span"
let instant_type = "instant"
let period_type = "period"
let element_type = "element"
let profile_type = "profile"

(* --- Constructors --------------------------------------------------------- *)

let chronon c = Value.Ext (chronon_type, V_chronon c)
let span s = Value.Ext (span_type, V_span s)
let instant i = Value.Ext (instant_type, V_instant i)
let period p = Value.Ext (period_type, V_period p)
let element e = Value.Ext (element_type, V_element e)
let profile p = Value.Ext (profile_type, V_profile p)

(* --- Accessors -------------------------------------------------------------- *)

let type_mismatch expected v =
  raise
    (Value.Type_error
       (Printf.sprintf "expected %s, got %s" expected (Value.type_name v)))

let as_chronon = function
  | Value.Ext (_, V_chronon c) -> c
  | v -> type_mismatch chronon_type v

let as_span = function
  | Value.Ext (_, V_span s) -> s
  | v -> type_mismatch span_type v

let as_instant = function
  | Value.Ext (_, V_instant i) -> i
  | v -> type_mismatch instant_type v

let as_period = function
  | Value.Ext (_, V_period p) -> p
  | v -> type_mismatch period_type v

let as_element = function
  | Value.Ext (_, V_element e) -> e
  | v -> type_mismatch element_type v

let as_profile = function
  | Value.Ext (_, V_profile p) -> p
  | v -> type_mismatch profile_type v

(* Loose reading: any timestamp-ish value as an element. Used by
   aggregates, whose inputs bypass cast resolution. *)
let to_element_value = function
  | Value.Ext (_, V_element e) -> e
  | Value.Ext (_, V_period p) -> Element.of_period p
  | Value.Ext (_, V_chronon c) -> Element.of_period (Period.of_chronon c)
  | Value.Ext (_, V_instant i) ->
    Element.of_period (Period.of_instants i i)
  | Value.Date c -> Element.of_period (Period.of_chronon c)
  | v -> type_mismatch element_type v

(* --- Vtables ------------------------------------------------------------------- *)

let parse_error_to_type_error f s =
  match f s with
  | v -> v
  | exception Scan.Parse_error msg -> raise (Value.Type_error msg)

(* Conservative index extents: NOW-relative endpoints are unbounded so
   that entries stay valid as time advances (the executor rechecks). A
   fixed endpoint's unix seconds are read straight off the instant's
   encoding (see Instant). *)
let endpoint (i : Instant.t) ~unbounded =
  let x = (i :> int) in
  if x land 1 = 0 then x asr 1 else unbounded

let instant_extent i =
  (endpoint i ~unbounded:min_int, endpoint i ~unbounded:max_int)

let bounds_extent s e =
  let lo = endpoint s ~unbounded:min_int and hi = endpoint e ~unbounded:max_int in
  if lo > hi then None else Some (lo, hi)

let period_extent (p : Period.t) = bounds_extent p.Period.start_ p.Period.end_

(* One index entry per period: an interval index over elements then
   prunes on each period separately rather than on one bounding box
   spanning the gaps — the difference between a useful and a useless
   index for multi-period timestamps. *)
let element_extents e =
  let acc = ref [] in
  Element.iter_bounds
    (fun s e -> Option.iter (fun ext -> acc := ext :: !acc) (bounds_extent s e))
    e;
  List.rev !acc

(* The element type's NOW-free [overlaps] (see [Value.vtable]). *)
let element_overlap a b =
  match a, b with
  | Value.Ext (_, V_element x), Value.Ext (_, V_element y) -> Element.overlap x y
  | _, _ -> Value.Not_finite

let registered = ref false

(* Registers the five datatypes; safe to call more than once. *)
let register_types () =
  if not !registered then begin
    registered := true;
    Value.register_type ~name:chronon_type
      { Value.parse =
          (fun s -> chronon (parse_error_to_type_error Chronon.of_string_exn s));
        print = (fun b v -> Chronon.to_buffer b (as_chronon v));
        compare = Some (fun a b -> Chronon.compare (as_chronon a) (as_chronon b));
        extents =
          Some
            (fun v ->
              let s = Chronon.to_unix_seconds (as_chronon v) in
              [ (s, s) ]);
        overlaps = None };
    Value.register_type ~name:span_type
      { Value.parse =
          (fun s -> span (parse_error_to_type_error Span.of_string_exn s));
        print = (fun b v -> Span.to_buffer b (as_span v));
        compare = Some (fun a b -> Span.compare (as_span a) (as_span b));
        extents = None;
        overlaps = None };
    (* Instants have no NOW-independent total order, so no [compare]:
       ordering them is the job of the blade's comparison operators,
       which receive the statement's transaction time. *)
    Value.register_type ~name:instant_type
      { Value.parse =
          (fun s -> instant (parse_error_to_type_error Instant.of_string_exn s));
        print = (fun b v -> Instant.to_buffer b (as_instant v));
        compare = None;
        extents = Some (fun v -> [ instant_extent (as_instant v) ]);
        overlaps = None };
    (* Period [overlaps] is the strict Allen relation: no NOW-free test. *)
    Value.register_type ~name:period_type
      { Value.parse =
          (fun s -> period (parse_error_to_type_error Period.of_string_exn s));
        print = (fun b v -> Period.to_buffer b (as_period v));
        compare = None;
        extents =
          Some (fun v -> Option.to_list (period_extent (as_period v)));
        overlaps = None };
    Value.register_type ~name:element_type
      { Value.parse =
          (fun s -> element (parse_error_to_type_error Element.of_string_exn s));
        print = (fun b v -> Element.to_buffer b (as_element v));
        compare = None;
        extents = Some (fun v -> element_extents (as_element v));
        overlaps = Some element_overlap };
    Value.register_type ~name:profile_type
      { Value.parse =
          (fun s -> profile (parse_error_to_type_error Profile.of_string_exn s));
        print = (fun b v -> Profile.to_buffer b (as_profile v));
        compare = None;
        extents =
          Some
            (fun v ->
              List.map
                (fun e ->
                  let s, e' = e.Profile.span_ in
                  (Chronon.to_unix_seconds s, Chronon.to_unix_seconds e'))
                (Profile.entries (as_profile v)));
        overlaps = None }
  end
