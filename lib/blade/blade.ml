(* The TIP DataBlade: installs the temporal types and the full routine
   collection into a database.

   After [install db], the five TIP datatypes and some forty routines
   behave as if they were built into the DBMS, exactly as the paper's
   DataBlade does for Informix: string literals cast automatically into
   temporal types, arithmetic and comparison operators are overloaded,
   Allen's operators work on periods, the element set algebra and the
   [group_union] aggregate (temporal coalescing) are available from plain
   SQL, and [overlaps]/[contains] calls against constants can be answered
   by interval indexes.

   Naming note: SQL keywords force two renamings relative to the math —
   the end of a period/element is [finish(x)] (END is reserved) and
   set-theoretic complement within a period is [complement(x, p)]. *)

open Tip_core
open Tip_storage
open Values

let bool_value b = Value.Bool b

let option_value f = function None -> Value.Null | Some x -> f x

(* --- Installation ------------------------------------------------------------ *)

let install_casts ext =
  let open Tip_engine.Extension in
  (* Automatic casts from SQL strings (implicit), and back (explicit). *)
  let string_casts =
    [ (chronon_type, fun s -> chronon (Chronon.of_string_exn s));
      (span_type, fun s -> span (Span.of_string_exn s));
      (instant_type, fun s -> instant (Instant.of_string_exn s));
      (period_type, fun s -> period (Period.of_string_exn s));
      (element_type, fun s -> element (Element.of_string_exn s)) ]
  in
  List.iter
    (fun (ty, parse) ->
      register_cast ext ~from_type:"char" ~to_type:ty ~implicit:true
        (fun ~now:_ v ->
          match parse (Value.to_string_value v) with
          | v -> v
          | exception Scan.Parse_error msg -> raise (Value.Type_error msg));
      register_cast ext ~from_type:ty ~to_type:"char" (fun ~now:_ v ->
          Value.Str (Value.to_display_string v)))
    string_casts;
  (* Widening chain: chronon -> instant -> period -> element (implicit). *)
  register_cast ext ~from_type:chronon_type ~to_type:instant_type ~implicit:true
    (fun ~now:_ v -> instant (Instant.of_chronon (as_chronon v)));
  register_cast ext ~from_type:chronon_type ~to_type:period_type ~implicit:true
    ~cost:2 (fun ~now:_ v -> period (Period.of_chronon (as_chronon v)));
  register_cast ext ~from_type:chronon_type ~to_type:element_type ~implicit:true
    ~cost:3
    (fun ~now:_ v -> element (Element.of_period (Period.of_chronon (as_chronon v))));
  register_cast ext ~from_type:instant_type ~to_type:period_type ~implicit:true
    (fun ~now:_ v ->
      let i = as_instant v in
      period (Period.of_instants i i));
  register_cast ext ~from_type:instant_type ~to_type:element_type ~implicit:true
    ~cost:2
    (fun ~now:_ v ->
      let i = as_instant v in
      element (Element.of_period (Period.of_instants i i)));
  register_cast ext ~from_type:period_type ~to_type:element_type ~implicit:true
    (fun ~now:_ v -> element (Element.of_period (as_period v)));
  (* Narrowing casts bind NOW; they are explicit, as in the paper's
     "NOW-1 becomes 1999-08-31" example. *)
  register_cast ext ~from_type:instant_type ~to_type:chronon_type
    (fun ~now v -> chronon (Instant.bind ~now (as_instant v)));
  (* SQL DATE interoperates with Chronon. *)
  register_cast ext ~from_type:"date" ~to_type:chronon_type ~implicit:true
    (fun ~now:_ v -> chronon (Value.to_date v));
  register_cast ext ~from_type:chronon_type ~to_type:"date" (fun ~now:_ v ->
      Value.Date (Chronon.start_of_day (as_chronon v)));
  register_cast ext ~from_type:"date" ~to_type:instant_type ~implicit:true
    ~cost:2 (fun ~now:_ v -> instant (Instant.of_chronon (Value.to_date v)));
  register_cast ext ~from_type:"date" ~to_type:period_type ~implicit:true
    ~cost:3 (fun ~now:_ v -> period (Period.of_chronon (Value.to_date v)));
  register_cast ext ~from_type:"date" ~to_type:element_type ~implicit:true
    ~cost:4
    (fun ~now:_ v -> element (Element.of_period (Period.of_chronon (Value.to_date v))));
  (* Spans convert to/from their length in seconds (explicitly). *)
  register_cast ext ~from_type:span_type ~to_type:"int" (fun ~now:_ v ->
      Value.Int (Span.to_seconds (as_span v)));
  register_cast ext ~from_type:"int" ~to_type:span_type (fun ~now:_ v ->
      span (Span.of_seconds (Value.to_int v)))

let install_operators ext =
  let open Tip_engine.Extension in
  let r name params impl = register_routine ext ~name ~params impl in
  let p_chronon = P_ext chronon_type
  and p_span = P_ext span_type
  and p_instant = P_ext instant_type
  and p_period = P_ext period_type
  and p_element = P_ext element_type in
  (* Arithmetic. A chronon plus a chronon stays a type error, as the
     paper insists. *)
  r "+" [ p_chronon; p_span ] (fun ~now:_ a ->
      chronon (Chronon.add (as_chronon a.(0)) (as_span a.(1))));
  r "+" [ p_span; p_chronon ] (fun ~now:_ a ->
      chronon (Chronon.add (as_chronon a.(1)) (as_span a.(0))));
  r "+" [ p_span; p_span ] (fun ~now:_ a ->
      span (Span.add (as_span a.(0)) (as_span a.(1))));
  r "+" [ p_instant; p_span ] (fun ~now:_ a ->
      instant (Instant.add (as_instant a.(0)) (as_span a.(1))));
  r "+" [ p_span; p_instant ] (fun ~now:_ a ->
      instant (Instant.add (as_instant a.(1)) (as_span a.(0))));
  r "-" [ p_chronon; p_chronon ] (fun ~now:_ a ->
      span (Chronon.diff (as_chronon a.(0)) (as_chronon a.(1))));
  r "-" [ p_chronon; p_span ] (fun ~now:_ a ->
      chronon (Chronon.sub (as_chronon a.(0)) (as_span a.(1))));
  r "-" [ p_span; p_span ] (fun ~now:_ a ->
      span (Span.sub (as_span a.(0)) (as_span a.(1))));
  r "-" [ p_instant; p_span ] (fun ~now:_ a ->
      instant (Instant.sub (as_instant a.(0)) (as_span a.(1))));
  r "-" [ p_instant; p_instant ] (fun ~now a ->
      span (Instant.diff ~now (as_instant a.(0)) (as_instant a.(1))));
  r "*" [ p_span; P_int ] (fun ~now:_ a ->
      span (Span.scale_int (as_span a.(0)) (Value.to_int a.(1))));
  r "*" [ P_int; p_span ] (fun ~now:_ a ->
      span (Span.scale_int (as_span a.(1)) (Value.to_int a.(0))));
  r "*" [ p_span; P_float ] (fun ~now:_ a ->
      span (Span.scale_float (as_span a.(0)) (Value.to_float a.(1))));
  r "*" [ P_float; p_span ] (fun ~now:_ a ->
      span (Span.scale_float (as_span a.(1)) (Value.to_float a.(0))));
  r "/" [ p_span; P_int ] (fun ~now:_ a ->
      let d = Value.to_int a.(1) in
      if d = 0 then raise (Value.Type_error "span division by zero");
      span (Span.of_seconds (Span.to_seconds (as_span a.(0)) / d)));
  r "/" [ p_span; p_span ] (fun ~now:_ a ->
      Value.Float (Span.ratio (as_span a.(0)) (as_span a.(1))));
  r "neg" [ p_span ] (fun ~now:_ a -> span (Span.neg (as_span a.(0))));
  (* NOW-aware comparisons on instants; chronons reach these through the
     implicit chronon->instant cast, which is how a Chronon column
     compares against NOW-7 and the answer changes as time advances. *)
  let cmp name test =
    r name [ p_instant; p_instant ] (fun ~now a ->
        bool_value (test (Instant.compare_at ~now (as_instant a.(0)) (as_instant a.(1)))))
  in
  cmp "=" (fun c -> c = 0);
  cmp "<>" (fun c -> c <> 0);
  cmp "<" (fun c -> c < 0);
  cmp "<=" (fun c -> c <= 0);
  cmp ">" (fun c -> c > 0);
  cmp ">=" (fun c -> c >= 0);
  (* Structural equality for the set types evaluates under NOW, so
     {[1999-01-01, NOW]} = {[1999-01-01, NOW]} and representation quirks
     (ordering, adjacency) do not matter. *)
  r "=" [ p_period; p_period ] (fun ~now a ->
      bool_value (Period.equal_at ~now (as_period a.(0)) (as_period a.(1))));
  r "<>" [ p_period; p_period ] (fun ~now a ->
      bool_value (not (Period.equal_at ~now (as_period a.(0)) (as_period a.(1)))));
  r "=" [ p_element; p_element ] (fun ~now a ->
      bool_value (Element.equal_at ~now (as_element a.(0)) (as_element a.(1))));
  r "<>" [ p_element; p_element ] (fun ~now a ->
      bool_value (not (Element.equal_at ~now (as_element a.(0)) (as_element a.(1)))))

let install_routines ext =
  let open Tip_engine.Extension in
  let r name params impl = register_routine ext ~name ~params impl in
  let p_chronon = P_ext chronon_type
  and p_span = P_ext span_type
  and p_instant = P_ext instant_type
  and p_period = P_ext period_type
  and p_element = P_ext element_type in
  (* Construction and observation. *)
  register_routine ext ~name:"now" ~params:[] ~strict:false (fun ~now _ ->
      chronon now);
  r "period" [ p_instant; p_instant ] (fun ~now:_ a ->
      period (Period.of_instants (as_instant a.(0)) (as_instant a.(1))));
  r "element" [ p_period ] (fun ~now:_ a ->
      element (Element.of_period (as_period a.(0))));
  r "start" [ p_period ] (fun ~now a ->
      option_value chronon (Period.start_at ~now (as_period a.(0))));
  r "finish" [ p_period ] (fun ~now a ->
      option_value chronon (Period.end_at ~now (as_period a.(0))));
  r "start" [ p_element ] (fun ~now a ->
      option_value chronon (Element.start ~now (as_element a.(0))));
  r "finish" [ p_element ] (fun ~now a ->
      option_value chronon (Element.end_ ~now (as_element a.(0))));
  r "first" [ p_element ] (fun ~now a ->
      option_value period (Element.first ~now (as_element a.(0))));
  r "last" [ p_element ] (fun ~now a ->
      option_value period (Element.last ~now (as_element a.(0))));
  r "extent" [ p_element ] (fun ~now a ->
      option_value period (Element.extent ~now (as_element a.(0))));
  r "duration" [ p_period ] (fun ~now a ->
      option_value span (Period.duration ~now (as_period a.(0))));
  r "length" [ p_period ] (fun ~now a ->
      option_value span (Period.duration ~now (as_period a.(0))));
  r "length" [ p_element ] (fun ~now a ->
      span (Element.length ~now (as_element a.(0))));
  r "count_periods" [ p_element ] (fun ~now a ->
      Value.Int (Element.count ~now (as_element a.(0))));
  r "is_empty" [ p_element ] (fun ~now a ->
      bool_value (Element.is_empty ~now (as_element a.(0))));
  r "normalize" [ p_element ] (fun ~now a ->
      element (Element.normalize ~now (as_element a.(0))));
  (* NOW-preserving append: unlike [union], which evaluates under NOW and
     returns ground periods, [add_period] keeps symbolic endpoints — the
     operation incremental view maintenance needs to open a [t, NOW]
     period that stays open. *)
  r "add_period" [ p_element; p_period ] (fun ~now:_ a ->
      element (Element.add_period (as_period a.(1)) (as_element a.(0))));
  (* Translate every period by a span (symbolic endpoints move too). *)
  r "shift" [ p_element; p_span ] (fun ~now:_ a ->
      let s = as_span a.(1) in
      let shift_period p =
        Period.of_instants
          (Instant.add (Period.start_instant p) s)
          (Instant.add (Period.end_instant p) s)
      in
      element
        (Element.of_periods (List.map shift_period (Element.periods (as_element a.(0))))));
  r "shift" [ p_period; p_span ] (fun ~now:_ a ->
      let p = as_period a.(0) and s = as_span a.(1) in
      period
        (Period.of_instants
           (Instant.add (Period.start_instant p) s)
           (Instant.add (Period.end_instant p) s)));
  (* 1-based access to the normalized periods; NULL past the end. *)
  r "nth_period" [ p_element; P_int ] (fun ~now a ->
      let n = Value.to_int a.(1) in
      let ground = Element.ground ~now (as_element a.(0)) in
      match List.nth_opt ground (n - 1) with
      | Some g -> period (Period.of_ground g)
      | None -> Value.Null);
  (* Civil-calendar helpers on chronons. *)
  r "year" [ p_chronon ] (fun ~now:_ a ->
      Value.Int (Chronon.year (as_chronon a.(0))));
  r "start_of_day" [ p_chronon ] (fun ~now:_ a ->
      chronon (Chronon.start_of_day (as_chronon a.(0))));
  r "month" [ p_chronon ] (fun ~now:_ a ->
      let _, m, _, _, _, _ = Chronon.to_civil (as_chronon a.(0)) in
      Value.Int m);
  r "day" [ p_chronon ] (fun ~now:_ a ->
      let _, _, d, _, _, _ = Chronon.to_civil (as_chronon a.(0)) in
      Value.Int d);
  r "day_of_week" [ p_chronon ] (fun ~now:_ a ->
      Value.Int (Granularity.day_of_week (as_chronon a.(0))));
  (* Granularities (TSQL2's coarser units): the unit is a string
     argument, e.g. trunc(c, 'month'), scale(valid, 'day'). *)
  let granularity_of a =
    match Granularity.of_string (Value.to_string_value a) with
    | Some g -> g
    | None ->
      raise (Value.Type_error (Printf.sprintf "unknown granularity %s"
                                 (Value.to_display_string a)))
  in
  r "trunc" [ p_chronon; P_string ] (fun ~now:_ a ->
      chronon (Granularity.truncate (granularity_of a.(1)) (as_chronon a.(0))));
  r "granule" [ p_chronon; P_string ] (fun ~now:_ a ->
      period
        (Period.of_ground
           (Granularity.granule (granularity_of a.(1)) (as_chronon a.(0)))));
  r "granules_between" [ p_chronon; p_chronon; P_string ] (fun ~now:_ a ->
      Value.Int
        (Granularity.between (granularity_of a.(2)) (as_chronon a.(0))
           (as_chronon a.(1))));
  r "scale" [ p_element; P_string ] (fun ~now a ->
      element (Granularity.scale ~now (granularity_of a.(1)) (as_element a.(0))));
  r "add_months" [ p_chronon; P_int ] (fun ~now:_ a ->
      chronon (Granularity.add_months (as_chronon a.(0)) (Value.to_int a.(1))));
  r "add_years" [ p_chronon; P_int ] (fun ~now:_ a ->
      chronon (Granularity.add_years (as_chronon a.(0)) (Value.to_int a.(1))));
  (* Allen's thirteen operators on periods (empty periods satisfy none). *)
  let allen name relation =
    r name [ p_period; p_period ] (fun ~now a ->
        bool_value
          (Allen.holds ~now relation (as_period a.(0)) (as_period a.(1))))
  in
  allen "before" Allen.Before;
  allen "meets" Allen.Meets;
  allen "overlaps" Allen.Overlaps;
  allen "finished_by" Allen.Finished_by;
  allen "contains" Allen.Contains;
  allen "starts" Allen.Starts;
  allen "equals" Allen.Equals;
  allen "started_by" Allen.Started_by;
  allen "during" Allen.During;
  allen "finishes" Allen.Finishes;
  allen "overlapped_by" Allen.Overlapped_by;
  allen "met_by" Allen.Met_by;
  allen "after" Allen.After;
  r "allen_relation" [ p_period; p_period ] (fun ~now a ->
      option_value
        (fun rel -> Value.Str (Allen.relation_name rel))
        (Allen.classify ~now (as_period a.(0)) (as_period a.(1))));
  (* Element set algebra — the linear-time routines of Section 3. *)
  let binary name impl =
    r name [ p_element; p_element ] (fun ~now a ->
        impl ~now (as_element a.(0)) (as_element a.(1)))
  in
  binary "union" (fun ~now a b -> element (Element.union ~now a b));
  binary "intersect" (fun ~now a b -> element (Element.intersect ~now a b));
  binary "difference" (fun ~now a b -> element (Element.difference ~now a b));
  binary "overlaps" (fun ~now a b -> bool_value (Element.overlaps ~now a b));
  binary "contains" (fun ~now a b -> bool_value (Element.contains ~now a b));
  r "complement" [ p_element; p_period ] (fun ~now a ->
      element
        (Element.complement ~now ~within:(as_period a.(1)) (as_element a.(0))));
  (* Period-level intersection (NULL when disjoint). *)
  r "intersect" [ p_period; p_period ] (fun ~now a ->
      option_value period (Period.intersect ~now (as_period a.(0)) (as_period a.(1))));
  r "span_of" [ p_period; p_period ] (fun ~now a ->
      option_value period (Period.span_of ~now (as_period a.(0)) (as_period a.(1))));
  (* Profile observations (per-instant aggregation results). *)
  let p_profile = P_ext profile_type in
  r "profile_of" [ p_element ] (fun ~now a ->
      profile (Profile.of_element ~now (as_element a.(0))));
  r "value_at" [ p_profile; p_chronon ] (fun ~now:_ a ->
      Value.Int (Profile.value_at (as_profile a.(0)) (as_chronon a.(1))));
  r "max_value" [ p_profile ] (fun ~now:_ a ->
      Value.Int (Profile.max_value (as_profile a.(0))));
  r "argmax" [ p_profile ] (fun ~now:_ a ->
      element (Profile.argmax (as_profile a.(0))));
  r "at_least" [ p_profile; P_int ] (fun ~now:_ a ->
      element (Profile.at_least (as_profile a.(0)) (Value.to_int a.(1))));
  r "integral" [ p_profile ] (fun ~now:_ a ->
      Value.Int (Profile.integral (as_profile a.(0))));
  ignore p_span

(* group_union's state: per group, its inputs' elements (references to
   the stored arrays, one word each) in a small array grown by doubling
   from 8, [counts.(gid)] of them used. The finalizer binds a group's
   periods under NOW into two scratch buffers that every group of the
   statement reuses, and coalesces them there in place. So the live
   state is a word per input row, no array grows with the whole input,
   and the finalizer reads each input's periods with no box between.
   The element is taken out of its value at step time, while the row is
   still in cache: keeping the [Value.t] and unboxing it in the
   finalizer measured slower on element inputs. A period (or other
   timestamp) input becomes a fresh one-period element, three words. *)
let group_union ~now =
  let inputs = ref [||] and counts = ref [||] in
  let starts = ref [||] and ends = ref [||] in
  let step gid v =
    let e = to_element_value v in
    Tip_engine.Extension.reserve counts gid 0;
    Tip_engine.Extension.reserve inputs gid [||];
    let k = !counts.(gid) and buf = !inputs.(gid) in
    if k = Array.length buf then begin
      let grown = Array.make (Int.max 8 (2 * k)) Element.empty in
      Array.blit buf 0 grown 0 k;
      !inputs.(gid) <- grown
    end;
    !inputs.(gid).(k) <- e;
    !counts.(gid) <- k + 1
  in
  let final gid =
    if gid >= Array.length !counts then element Element.empty
    else begin
      let buf = !inputs.(gid) and n = !counts.(gid) in
      let room = ref 0 in
      for i = 0 to n - 1 do
        room := !room + Element.raw_count buf.(i)
      done;
      if !room > Array.length !starts then begin
        starts := Array.make (Int.max !room (2 * Array.length !starts)) 0;
        ends := Array.make (Array.length !starts) 0
      end;
      let k = ref 0 in
      for i = 0 to n - 1 do
        k := Element.bind_bounds ~now buf.(i) ~starts:!starts ~ends:!ends !k
      done;
      element (Element.coalesce_bounds ~starts:!starts ~ends:!ends !k)
    end
  in
  { Tip_engine.Extension.step; final }

(* group_profile's state: per group, its inputs' periods grounded under
   the statement's NOW at step time. The finalizer sweeps a group's
   endpoints once, so a group of n inputs costs O(n log n). *)
let group_profile ~now =
  let inputs = ref [||] in
  let step gid v =
    Tip_engine.Extension.reserve inputs gid [];
    !inputs.(gid) <- (Element.ground ~now (to_element_value v), 1) :: !inputs.(gid)
  in
  let final gid =
    profile
      (Profile.of_weighted_ground
         (if gid < Array.length !inputs then !inputs.(gid) else []))
  in
  { Tip_engine.Extension.step; final }

let install_aggregates ext =
  let open Tip_engine.Extension in
  (* group_union: the temporal coalescing aggregate of the paper's
     Section 2 — union of a collection of elements. A step records its
     input in its group, allocating nothing per row; the finalizer binds
     the group's periods under the statement's NOW and coalesces the two
     bound multisets in place, in one sort-and-sweep. *)
  register_aggregate ext ~name:"group_union" { create = group_union };
  (* group_intersect: chronons common to every input element. *)
  register_aggregate ext ~name:"group_intersect"
    (fold_aggregate
       ~init:(fun () -> Value.Null) (* no input yet *)
       ~step:(fun ~now acc v ->
         if Value.is_null acc then element (to_element_value v)
         else element (Element.intersect ~now (as_element acc) (to_element_value v)))
       ~final:(fun ~now:_ acc -> acc));
  (* group_profile: per-instant COUNT — the sequenced aggregation that
     plain element routines cannot express (see EXPERIMENTS.md E12). *)
  register_aggregate ext ~name:"group_profile" { create = group_profile }

let install_planner_hooks ext =
  Tip_engine.Extension.register_interval_sargable ext ~name:"overlaps";
  Tip_engine.Extension.register_interval_sargable ext ~name:"contains";
  (* Transaction time: WITH HISTORY shadow tables carry an Element
     timestamp that opens as {[now, NOW]} and is clipped when the row
     stops being current — the engine drives the mechanics, the blade
     supplies the temporal semantics. *)
  Tip_engine.Extension.register_history_support ext
    { Tip_engine.Extension.timestamp_type = element_type;
      open_timestamp =
        (fun ~now -> element (Element.of_period (Period.since now)));
      close_timestamp =
        (fun ~now tt ->
          let clip =
            Element.of_period
              (Period.of_chronons (Chronon.succ now) (Chronon.of_ymd 9999 12 31))
          in
          element (Element.difference ~now (as_element tt) clip));
      is_open = (fun tt -> Element.is_now_relative (as_element tt));
      timestamp_contains =
        (fun ~now tt at -> Element.contains_chronon ~now (as_element tt) at) };
  Tip_engine.Extension.register_chronon_extractor ext (fun ~now v ->
      match v with
      | Value.Ext (_, V_chronon c) -> Some c
      | Value.Ext (_, V_instant i) -> Some (Instant.bind ~now i)
      | _ -> None)

(* Installs the TIP DataBlade into a database. Idempotent per database
   is not required — install once right after [Database.create]. *)
let install db =
  register_types ();
  let ext = Tip_engine.Database.extension db in
  install_casts ext;
  install_operators ext;
  install_routines ext;
  install_aggregates ext;
  install_planner_hooks ext

(* Convenience: a fresh database with the blade installed. *)
let create_database () =
  let db = Tip_engine.Database.create () in
  install db;
  db
