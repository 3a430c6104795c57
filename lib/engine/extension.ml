(* The extensibility interface — our stand-in for the Informix DataBlade
   API.

   A blade installs, against one database: scalar routines (with
   overloading by argument type), operator overloads (the same mechanism,
   keyed by the operator symbol), casts (implicit or explicit), user-
   defined aggregates, and planner hints (which routine calls an interval
   index can answer). Datatypes themselves are registered globally in
   [Tip_storage.Value]; everything here is per-database state, mirroring
   how a DataBlade is installed into one Informix database. *)

open Tip_storage

(* Parameter types for overload matching. *)
type ptype =
  | P_int
  | P_float
  | P_bool
  | P_string
  | P_date
  | P_ext of string
  | P_any

let ptype_name = function
  | P_int -> "int"
  | P_float -> "float"
  | P_bool -> "boolean"
  | P_string -> "char"
  | P_date -> "date"
  | P_ext n -> n
  | P_any -> "any"

let value_matches ptype v =
  match ptype, v with
  | P_any, _ -> true
  | _, Value.Null -> true (* NULL inhabits every type; routines see it *)
  | P_int, Value.Int _ -> true
  | P_float, (Value.Float _ | Value.Int _) -> true
  | P_bool, Value.Bool _ -> true
  | P_string, Value.Str _ -> true
  | P_date, Value.Date _ -> true
  | P_ext n, Value.Ext (n', _) -> String.equal n n'
  | (P_int | P_float | P_bool | P_string | P_date | P_ext _), _ -> false

(* A routine implementation. [now] is the statement's transaction time. *)
type routine = {
  params : ptype list;
  strict : bool; (* strict routines return NULL on any NULL argument *)
  impl : now:Tip_core.Chronon.t -> Value.t array -> Value.t;
}

type cast = {
  cast_to : string; (* target type name (canonical) *)
  implicit : bool;
  cast_cost : int;
    (* resolution cost; longer widening chains cost more so that e.g.
       chronon->instant is preferred over chronon->element *)
  cast_impl : now:Tip_core.Chronon.t -> Value.t -> Value.t;
}

(* A user aggregate over dense group ids: [create ~now] makes one
   statement's state for every group at once, [step gid v] folds a
   non-NULL input into group [gid] and [final gid] reads the group's
   result once, after its last step. *)
type grouped = { step : int -> Value.t -> unit; final : int -> Value.t }
type aggregate = { create : now:Tip_core.Chronon.t -> grouped }

(* Makes room for slot [gid] in a gid-indexed column, at least doubling
   it; new slots hold [fill]. *)
let reserve col gid fill =
  let a = !col in
  if gid >= Array.length a then begin
    let b = Array.make (Int.max (gid + 1) (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    col := b
  end

(* The Informix INIT/ITER/FINAL shape as a grouped aggregate: one
   accumulator per group in a gid-indexed column. *)
let fold_aggregate ~init ~step ~final =
  { create =
      (fun ~now ->
        let accs = ref [||] in
        let grow gid =
          let n = Array.length !accs in
          if gid >= n then begin
            reserve accs gid Value.Null;
            for i = n to Array.length !accs - 1 do
              !accs.(i) <- init ()
            done
          end
        in
        { step =
            (fun gid v ->
              grow gid;
              !accs.(gid) <- step ~now !accs.(gid) v);
          final =
            (fun gid ->
              grow gid;
              final ~now !accs.(gid)) }) }

(* Transaction-time support, registered by a temporal blade: how to
   create, close and probe the tuple timestamps of WITH HISTORY shadow
   tables. The engine has no temporal types of its own, so this is the
   interface through which a blade brings transaction time to SQL. *)
type history_support = {
  timestamp_type : string;
    (* the column type of the shadow table's _tt column, e.g. "element" *)
  open_timestamp : now:Tip_core.Chronon.t -> Value.t;
    (* the timestamp of a freshly current row: {[now, NOW]} *)
  close_timestamp : now:Tip_core.Chronon.t -> Value.t -> Value.t;
    (* clip an open timestamp at [now] when the row stops being current *)
  is_open : Value.t -> bool;
    (* does the timestamp still track NOW? *)
  timestamp_contains : now:Tip_core.Chronon.t -> Value.t -> Tip_core.Chronon.t -> bool;
    (* AS OF probe: was the row current at the given instant? *)
}

type t = {
  routines : (string, routine list) Hashtbl.t;
  casts : (string, cast list) Hashtbl.t; (* keyed by source type name *)
  aggregates : (string, aggregate) Hashtbl.t;
  mutable interval_sargable : string list;
    (* routine names [f] such that [f(column, constant)] is answerable
       from an interval index on the column (with recheck) *)
  mutable chronon_extractors :
    (now:Tip_core.Chronon.t -> Value.t -> Tip_core.Chronon.t option) list;
    (* how the engine gets a chronon out of a blade value, e.g. for SET NOW *)
  mutable history : history_support option;
}

exception Resolution_error of string

let resolution_error fmt =
  Format.kasprintf (fun s -> raise (Resolution_error s)) fmt

let create () =
  { routines = Hashtbl.create 64;
    casts = Hashtbl.create 16;
    aggregates = Hashtbl.create 16;
    interval_sargable = [];
    chronon_extractors = [];
    history = None }

let canonical = String.lowercase_ascii

(* --- Registration ------------------------------------------------------- *)

let register_routine t ~name ~params ?(strict = true) impl =
  let key = canonical name in
  let existing = Option.value (Hashtbl.find_opt t.routines key) ~default:[] in
  List.iter
    (fun r ->
      if r.params = params then
        invalid_arg
          (Printf.sprintf "routine %s(%s) already registered" key
             (String.concat ", " (List.map ptype_name params))))
    existing;
  Hashtbl.replace t.routines key ({ params; strict; impl } :: existing)

let register_cast t ~from_type ~to_type ?(implicit = false) ?(cost = 1) cast_impl =
  let key = canonical from_type in
  let existing = Option.value (Hashtbl.find_opt t.casts key) ~default:[] in
  let cast = { cast_to = canonical to_type; implicit; cast_cost = cost; cast_impl } in
  Hashtbl.replace t.casts key (cast :: existing)

let register_aggregate t ~name agg =
  let key = canonical name in
  if Hashtbl.mem t.aggregates key then
    invalid_arg (Printf.sprintf "aggregate %s already registered" key);
  Hashtbl.replace t.aggregates key agg

let register_interval_sargable t ~name =
  t.interval_sargable <- canonical name :: t.interval_sargable

let register_chronon_extractor t f =
  t.chronon_extractors <- f :: t.chronon_extractors

let register_history_support t support = t.history <- Some support

let history_support t = t.history

(* --- Lookup -------------------------------------------------------------- *)

let find_aggregate t name = Hashtbl.find_opt t.aggregates (canonical name)
let is_aggregate t name = find_aggregate t name <> None

let is_interval_sargable t name =
  List.mem (canonical name) t.interval_sargable

let find_cast t ~from_type ~to_type =
  match Hashtbl.find_opt t.casts (canonical from_type) with
  | None -> None
  | Some casts ->
    List.find_opt (fun c -> String.equal c.cast_to (canonical to_type)) casts

let find_implicit_cast t ~from_type ~to_type =
  match find_cast t ~from_type ~to_type with
  | Some c when c.implicit -> Some c
  | Some _ | None -> None

(* Chronon extraction: Date natively, strings as chronon literals, blade
   types via extractors; NOW-relative values bind to the caller's
   statement NOW. *)
let to_chronon t ~now v =
  match v with
  | Value.Date c -> Some c
  | Value.Str s -> Tip_core.Chronon.of_string s
  | Value.Null | Value.Int _ | Value.Float _ | Value.Bool _ | Value.Ext _ ->
    List.find_map (fun f -> f ~now v) t.chronon_extractors

(* --- Overload resolution --------------------------------------------------- *)

(* Cost of passing [v] where [p] is expected: 0 exact, 1 via implicit
   conversion (int widening to float, or a registered implicit cast),
   with the chosen cast; None if impossible. The widening cost keeps
   overloads like (span, int) and (span, float) unambiguous. *)
let arg_cost t p v =
  let exact =
    match p, v with
    | P_float, Value.Int _ -> false (* widening, not exact *)
    | _, _ -> value_matches p v
  in
  if exact then Some (0, None)
  else if p = P_float && (match v with Value.Int _ -> true | _ -> false) then
    Some (1, None)
  else begin
    match p with
    | P_ext target -> (
      match find_implicit_cast t ~from_type:(Value.type_name v) ~to_type:target with
      | Some cast -> Some (cast.cast_cost, Some cast)
      | None -> None)
    | P_date -> (
      match
        find_implicit_cast t ~from_type:(Value.type_name v) ~to_type:"date"
      with
      | Some cast -> Some (cast.cast_cost, Some cast)
      | None -> None)
    | P_int | P_float | P_bool | P_string | P_any -> None
  end

(* The outcome of overload resolution. Resolution depends only on the
   arguments' type names (costs, casts and the NULL rules all key off
   the value's type, with NULL its own type), so call sites may cache a
   [resolved] keyed by those names and skip re-scoring per row. *)
type resolved =
  | R_null  (* strict routine with a NULL argument, or the null-tie rule *)
  | R_direct of routine  (* every argument passes as it is *)
  | R_cast of cast option array * routine  (* some argument casts first *)

(* Resolves the best overload of [name] for [args] without applying it.
   Raises [Resolution_error] when nothing (or too many things) match. *)
let resolve_routine t ~name args =
  let key = canonical name in
  match Hashtbl.find_opt t.routines key with
  | None -> resolution_error "unknown routine %s" name
  | Some overloads ->
    let arity_matched =
      List.filter (fun r -> List.length r.params = Array.length args) overloads
    in
    if arity_matched = [] then
      resolution_error "routine %s does not take %d arguments" name
        (Array.length args);
    let scored =
      List.filter_map
        (fun r ->
          let rec score i params total casts =
            match params with
            | [] -> Some (total, List.rev casts)
            | p :: rest -> (
              match arg_cost t p args.(i) with
              | Some (c, cast) -> score (i + 1) rest (total + c) (cast :: casts)
              | None -> None)
          in
          match score 0 r.params 0 [] with
          | Some (total, casts) -> Some (total, casts, r)
          | None -> None)
        arity_matched
    in
    (match List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) scored with
    | [] ->
      resolution_error "no overload of %s matches (%s)" name
        (String.concat ", "
           (List.map Value.type_name (Array.to_list args)))
    (* A NULL argument matches every type, which can tie otherwise
       distinct overloads; when all tied candidates are strict the
       answer is NULL whichever would run. *)
    | (c1, _, r1) :: (c2, _, _) :: _
      when c1 = c2 && Array.exists Value.is_null args
           && List.for_all
                (fun (c, _, r) -> c > c1 || r.strict)
                scored
           && r1.strict ->
      R_null
    | (c1, _, _) :: (c2, _, _) :: _ when c1 = c2 ->
      resolution_error "ambiguous call to %s" name
    | (_, casts, r) :: _ ->
      if r.strict && Array.exists Value.is_null args then R_null
      else if List.for_all Option.is_none casts then R_direct r
      else R_cast (Array.of_list casts, r))

(* The arguments with their casts applied, in a fresh array; [cast i c v]
   applies cast [c] to argument [i]. *)
let cast_args casts args cast =
  let out = Array.copy args in
  for i = 0 to Array.length args - 1 do
    match casts.(i) with
    | Some c -> out.(i) <- cast i c args.(i)
    | None -> ()
  done;
  out

let apply_resolved ~now resolved args =
  match resolved with
  | R_null -> Value.Null
  | R_direct r -> r.impl ~now args
  | R_cast (casts, r) ->
    r.impl ~now (cast_args casts args (fun _ c v -> c.cast_impl ~now v))

(* Resolves and applies in one step (resolution cost per call; hot paths
   cache the [resolved] instead). *)
let apply_routine t ~now ~name args =
  apply_resolved ~now (resolve_routine t ~name args) args

(* Per-call-site dispatch with two inline caches: overload resolution is
   keyed by the argument type names (almost always identical across the
   rows of one statement), and cast outputs are keyed per position by
   physical identity of the input value — a literal compiles to one
   shared value, so e.g. an element constant written as a string parses
   once instead of once per row. The cast cache is only sound while
   [now] is fixed, i.e. within one compiled statement — create a fresh
   caller per compilation site. *)
(* Do [argv]'s type names from [i] on equal [tys]'s? *)
let rec same_types tys argv i =
  i >= Array.length tys
  || (String.equal tys.(i) (Value.type_name argv.(i)) && same_types tys argv (i + 1))

let caller t ~name =
  let resolved_cache : (string array * resolved) option ref = ref None in
  let cast_cache : (Value.t * Value.t) option array ref = ref [||] in
  fun ~now (argv : Value.t array) ->
    let n = Array.length argv in
    let resolved =
      match !resolved_cache with
      | Some (tys, r) when Array.length tys = n && same_types tys argv 0 -> r
      | _ ->
        let r = resolve_routine t ~name argv in
        resolved_cache := Some (Array.map Value.type_name argv, r);
        r
    in
    match resolved with
    | R_null -> Value.Null
    | R_direct r -> r.impl ~now argv
    | R_cast (casts, r) ->
      let cache =
        let c = !cast_cache in
        if Array.length c = n then c
        else begin
          let c = Array.make n None in
          cast_cache := c;
          c
        end
      in
      r.impl ~now
        (cast_args casts argv (fun i cast v ->
             match cache.(i) with
             | Some (vin, vout) when vin == v -> vout
             | _ ->
               let out = cast.cast_impl ~now v in
               cache.(i) <- Some (v, out);
               out))

(* The cast from [from_type] to [to_type]: identity casts succeed
   trivially, and a missing cast raises [Resolution_error] when
   applied. *)
let cast_fn t ~from_type ~to_type =
  if String.equal (canonical from_type) (canonical to_type) then fun ~now:_ v -> v
  else
    match find_cast t ~from_type ~to_type with
    | Some cast -> cast.cast_impl
    | None ->
      fun ~now:_ _ ->
        resolution_error "no cast from %s to %s" from_type (canonical to_type)

(* A call site casts to one target type, so its cache is keyed by the
   source type name alone. *)
type cast_cache = {
  mutable from_name : string;
  mutable cast : now:Tip_core.Chronon.t -> Value.t -> Value.t;
}

let cast_cache () = { from_name = ""; cast = (fun ~now:_ v -> v) }

let cached_cast t cache ~now v ~to_type =
  if Value.is_null v then Value.Null
  else begin
    let from_type = Value.type_name v in
    if not (String.equal cache.from_name from_type) then begin
      cache.cast <- cast_fn t ~from_type ~to_type;
      cache.from_name <- from_type
    end;
    cache.cast ~now v
  end
