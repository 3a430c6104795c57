open Tip_core

let now = Chronon.of_ymd 1999 10 1
let day y m d = Chronon.of_ymd y m d
let element = Alcotest.testable Element.pp Element.equal
let span = Alcotest.testable Span.pp Span.equal

let el s = Element.of_string_exn s
let norm e = Element.normalize ~now e

let check_paper_example () =
  (* "from January to April, and then from July to October" *)
  let e = el "{[1999-01-01, 1999-04-30], [1999-07-01, 1999-10-31]}" in
  Alcotest.(check int) "two periods" 2 (Element.count ~now e);
  Alcotest.(check string) "prints as written"
    "{[1999-01-01, 1999-04-30], [1999-07-01, 1999-10-31]}"
    (Element.to_string e)

let check_normalize () =
  let messy =
    el "{[1999-03-01, 1999-05-01], [1999-01-01, 1999-03-15], [1999-07-01, 1999-07-02]}"
  in
  Alcotest.check element "overlapping periods merge"
    (el "{[1999-01-01, 1999-05-01], [1999-07-01, 1999-07-02]}") (norm messy);
  (* Adjacent closed periods coalesce over discrete time. *)
  let adjacent =
    Element.of_periods
      [ Period.of_chronons (day 1999 1 1) (day 1999 1 31);
        Period.of_chronons
          (Chronon.succ (Chronon.of_civil ~year:1999 ~month:1 ~day:31 ~hour:0
                           ~minute:0 ~second:0))
          (day 1999 2 28) ]
  in
  Alcotest.(check int) "adjacent periods coalesce" 1
    (Element.count ~now adjacent)

let check_set_ops () =
  let a = el "{[1999-01-01, 1999-04-30]}" in
  let b = el "{[1999-03-01, 1999-06-30]}" in
  Alcotest.check element "union"
    (el "{[1999-01-01, 1999-06-30]}") (Element.union ~now a b);
  Alcotest.check element "intersect"
    (el "{[1999-03-01, 1999-04-30]}") (Element.intersect ~now a b);
  Alcotest.check element "difference"
    (norm (el "{[1999-01-01, 1999-02-28 23:59:59]}"))
    (Element.difference ~now a b);
  Alcotest.(check bool) "overlaps" true (Element.overlaps ~now a b);
  (* Closed periods sharing one chronon overlap, with or without NOW. *)
  let upto = el "{[1999-01-01, 1999-03-01]}" and from = el "{[1999-03-01, 1999-06-30]}" in
  Alcotest.(check bool) "shared endpoint: NOW-free hit" true
    (Element.overlap upto from = Element.Hit && Element.overlap from upto = Element.Hit);
  Alcotest.(check bool) "shared endpoint: overlaps" true (Element.overlaps ~now upto from);
  Alcotest.(check bool) "contains" true
    (Element.contains ~now (el "{[1998-01-01, 2000-01-01]}") a);
  Alcotest.(check bool) "not contains" false (Element.contains ~now a b)

let check_now_relative () =
  let since_oct = el "{[1999-10-01, NOW]}" in
  let e1 = Element.ground ~now:(day 1999 10 15) since_oct in
  let e2 = Element.ground ~now:(day 1999 12 1) since_oct in
  Alcotest.(check bool) "grows as NOW advances" true
    (Span.compare
       (Element.ground_length e2) (Element.ground_length e1) > 0);
  (* Before its start the element is empty. *)
  Alcotest.(check bool) "empty before start" true
    (Element.is_empty ~now:(day 1999 9 1) since_oct)

let check_observers () =
  let e = el "{[1999-07-01, 1999-10-31], [1999-01-01, 1999-04-30]}" in
  Alcotest.(check (option (Alcotest.testable Chronon.pp Chronon.equal)))
    "start is earliest"
    (Some (day 1999 1 1)) (Element.start ~now e);
  Alcotest.(check (option (Alcotest.testable Chronon.pp Chronon.equal)))
    "end is latest"
    (Some (day 1999 10 31)) (Element.end_ ~now e);
  Alcotest.check span "length sums periods"
    (Span.add (Span.of_days 119) (Span.of_days 122))
    (Element.length ~now e);
  (match Element.extent ~now e with
  | None -> Alcotest.fail "extent"
  | Some p ->
    Alcotest.(check string) "extent covers both" "[1999-01-01, 1999-10-31]"
      (Period.to_string p));
  Alcotest.(check bool) "empty element" true
    (Element.is_empty ~now Element.empty);
  Alcotest.(check string) "empty notation" "{}" (Element.to_string Element.empty)

let check_complement () =
  let e = el "{[1999-02-01, 1999-02-28]}" in
  let within = Period.of_chronons (day 1999 1 1) (day 1999 12 31) in
  let gaps = Element.complement ~now ~within e in
  Alcotest.(check int) "two gaps" 2 (Element.count ~now gaps);
  Alcotest.check element "complement . complement = normalize"
    (norm e)
    (Element.complement ~now ~within gaps)

(* Over-long numbers anywhere in an element literal are parse errors. *)
let check_literal_overflow () =
  List.iter
    (fun text ->
      Alcotest.(check (option reject)) text None (Element.of_string text);
      match Element.of_string_exn text with
      | _ -> Alcotest.failf "%S accepted" text
      | exception Scan.Parse_error _ -> ())
    [ "{[99999999999999999999-01-01, 2000-01-01]}";
      "{[1999-01-01, 2000-01-99999999999999999999]}";
      "{[1999-01-01, NOW-99999999999999999999]}";
      "{[1999-01-01, 2000-01-01], [2001-01-01 99999999999999999999:00:00, NOW]}" ]

(* --- Differential testing against the naive quadratic oracle -------- *)

let ground_set_arb =
  let open QCheck in
  let gen =
    let open Gen in
    let period =
      let* s = int_range 0 5_000 in
      let* len = int_range 0 300 in
      return (Chronon.of_unix_seconds s, Chronon.of_unix_seconds (s + len))
    in
    list_size (int_range 0 20) period
  in
  make
    ~print:(fun ps ->
      Element.to_string (Element.of_ground_list ps))
    gen

(* Normalizes an arbitrary (possibly overlapping) period list both ways. *)
let via_element ps = Element.ground ~now (Element.of_ground_list ps)
let via_naive ps = Element_naive.normalized ps

let prop_normalize_matches_naive =
  QCheck.Test.make ~name:"normalize = naive oracle" ~count:1000 ground_set_arb
    (fun ps -> via_element ps = via_naive ps)

let binop_arb = QCheck.pair ground_set_arb ground_set_arb

let prop_union_matches =
  QCheck.Test.make ~name:"union = naive oracle" ~count:1000 binop_arb
    (fun (a, b) ->
      Element.ground_union (via_element a) (via_element b)
      = Element_naive.normalized (Element_naive.union (via_naive a) (via_naive b)))

let prop_intersect_matches =
  QCheck.Test.make ~name:"intersect = naive oracle" ~count:1000 binop_arb
    (fun (a, b) ->
      Element.ground_intersect (via_element a) (via_element b)
      = Element_naive.normalized
          (Element_naive.intersect (via_naive a) (via_naive b)))

let prop_difference_matches =
  QCheck.Test.make ~name:"difference = naive oracle" ~count:1000 binop_arb
    (fun (a, b) ->
      Element.ground_difference (via_element a) (via_element b)
      = Element_naive.normalized
          (Element_naive.difference (via_naive a) (via_naive b)))

let prop_overlaps_matches =
  QCheck.Test.make ~name:"overlaps = naive oracle" ~count:1000 binop_arb
    (fun (a, b) ->
      Element.ground_overlaps (via_element a) (via_element b)
      = Element_naive.overlaps (via_naive a) (via_naive b))

(* --- Written elements against the naive oracle ------------------------ *)

(* Elements as written: up to 8 periods, unsorted, overlapping, inverted
   or NOW-relative, over a span of seconds that several NOW bindings
   below straddle. Endpoints fall on a coarse grid, so periods often
   touch, abut or share an endpoint. *)
let written_arb =
  let open QCheck in
  let grid lo hi = Gen.map (fun k -> k * 50) (Gen.int_range (lo / 50) (hi / 50)) in
  let instant =
    Gen.(
      frequency
        [ (3, map (fun s -> Instant.of_chronon (Chronon.of_unix_seconds s)) (grid 0 6_000));
          (1, map (fun d -> Instant.now_plus (Span.of_seconds d)) (grid (-3_000) 3_000)) ])
  in
  let period = Gen.map2 Period.of_instants instant instant in
  make ~print:Element.to_string
    Gen.(map Element.of_periods (list_size (int_range 0 8) period))

let nows = List.map Chronon.of_unix_seconds [ 0; 1_500; 3_000; 6_500 ]

(* The oracle's normalization: bind each written period under [now], drop
   the empty ones, then merge by repeated insertion. *)
let naive_ground ~now e =
  Element_naive.normalized
    (List.fold_left Element_naive.insert_period []
       (List.filter_map (Period.ground ~now) (Element.periods e)))

let at_every_now f = List.for_all (fun now -> f ~now) nows

let prop_overlap_matches_overlaps =
  QCheck.Test.make ~name:"NOW-free overlap agrees with overlaps at every NOW"
    ~count:1000 (QCheck.pair written_arb written_arb) (fun (a, b) ->
      at_every_now (fun ~now ->
          let expected =
            Element_naive.overlaps (naive_ground ~now a) (naive_ground ~now b)
          in
          Element.overlaps ~now a b = expected
          &&
          match Element.overlap a b with
          | Element.Hit -> expected
          | Element.Miss -> not expected
          | Element.Not_finite -> Element.is_now_relative a || Element.is_now_relative b))

let prop_coalesce_bounds_is_normalize =
  QCheck.Test.make ~name:"coalesce_bounds = normalize" ~count:1000 ground_set_arb
    (fun ps ->
      let n = List.length ps in
      let starts = Array.of_list (List.map (fun (s, _) -> Chronon.to_unix_seconds s) ps)
      and ends = Array.of_list (List.map (fun (_, e) -> Chronon.to_unix_seconds e) ps) in
      Element.equal
        (Element.coalesce_bounds ~starts ~ends n)
        (Element.normalize ~now (Element.of_ground_list ps)))

(* [overlap] against one written period, [overlap]'s branch-free path
   when that period is fixed and nonempty. *)
let prop_one_period_overlap =
  QCheck.Test.make ~name:"one-period overlap agrees with the oracle at every NOW"
    ~count:1000 (QCheck.pair written_arb written_arb) (fun (a, b) ->
      let b = Element.of_periods (List.filteri (fun i _ -> i = 0) (Element.periods b)) in
      at_every_now (fun ~now ->
          let expected =
            Element_naive.overlaps (naive_ground ~now a) (naive_ground ~now b)
          in
          match Element.overlap a b with
          | Element.Hit -> expected
          | Element.Miss -> not expected
          | Element.Not_finite -> Element.is_now_relative a || Element.is_now_relative b))

(* A group_union group as its finalizer sees it: up to 12 written
   elements bound under NOW into one pair of buffers, then coalesced by
   the one-sort sweep. Endpoints fall on a grid or one second past it,
   so periods abut (one ends a second before the next starts), nest,
   share endpoints, or are empty (inverted); some are NOW-relative. *)
let group_arb =
  let open QCheck in
  let at = Gen.(map2 (fun k d -> (k * 50) + d) (int_range 0 120) (int_range 0 1)) in
  let instant =
    Gen.(
      frequency
        [ (4, map (fun s -> Instant.of_chronon (Chronon.of_unix_seconds s)) at);
          (1, map (fun s -> Instant.now_plus (Span.of_seconds (s - 3_000))) at) ])
  in
  let period = Gen.map2 Period.of_instants instant instant in
  make
    ~print:(fun es -> String.concat " " (List.map Element.to_string es))
    Gen.(list_size (int_range 0 12) (map Element.of_periods (list_size (int_range 0 5) period)))

let prop_group_sweep_matches_naive =
  QCheck.Test.make ~name:"grouped sweep = naive oracle at every NOW" ~count:1000
    group_arb (fun group ->
      at_every_now (fun ~now ->
          let room = List.fold_left (fun n e -> n + Element.raw_count e) 0 group in
          let starts = Array.make room 0 and ends = Array.make room 0 in
          let k =
            List.fold_left (fun k e -> Element.bind_bounds ~now e ~starts ~ends k) 0 group
          in
          Element.ground ~now (Element.coalesce_bounds ~starts ~ends k)
          = naive_ground ~now (Element.of_periods (List.concat_map Element.periods group))))

let chronon_opt = Alcotest.(option (testable Chronon.pp Chronon.equal))

let prop_observers_match =
  QCheck.Test.make ~name:"observers = naive oracle at every NOW" ~count:1000
    written_arb (fun e ->
      at_every_now (fun ~now ->
          let g = naive_ground ~now e in
          let ends = List.rev g in
          Element.ground ~now e = g
          && Element.ground ~now (Element.normalize ~now e) = g
          && Element.count ~now e = List.length g
          && Element.is_empty ~now e = (g = [])
          && Span.equal (Element.length ~now e)
               (List.fold_left (fun acc (s, e) -> Span.add acc (Chronon.diff e s)) Span.zero g)
          && Alcotest.equal chronon_opt (Element.start ~now e)
               (match g with (s, _) :: _ -> Some s | [] -> None)
          && Alcotest.equal chronon_opt (Element.end_ ~now e)
               (match ends with (_, e) :: _ -> Some e | [] -> None)
          && Option.map (Period.ground ~now) (Element.extent ~now e)
             = (match g, ends with
               | (s, _) :: _, (_, e) :: _ -> Some (Some (s, e))
               | _, _ -> None)
          && Option.map (Period.ground ~now) (Element.first ~now e)
             = Option.map Option.some (List.nth_opt g 0)
          && Option.map (Period.ground ~now) (Element.last ~now e)
             = Option.map Option.some (List.nth_opt ends 0)))

let prop_contains_match =
  QCheck.Test.make ~name:"contains* and complement = naive oracle at every NOW"
    ~count:1000 (QCheck.pair written_arb written_arb) (fun (a, b) ->
      let within = Period.of_chronons (Chronon.of_unix_seconds 500) (Chronon.of_unix_seconds 5_000) in
      at_every_now (fun ~now ->
          let ga = naive_ground ~now a and gb = naive_ground ~now b in
          let covered (s, e) =
            List.exists
              (fun (s', e') -> Chronon.compare s' s <= 0 && Chronon.compare e e' <= 0)
              ga
          in
          Element.contains ~now a b = List.for_all covered gb
          && List.for_all
               (fun c ->
                 let c = Chronon.of_unix_seconds c in
                 Element.contains_chronon ~now a c
                 = List.exists
                     (fun (s, e) -> Chronon.compare s c <= 0 && Chronon.compare c e <= 0)
                     ga)
               [ 0; 1; 499; 500; 2_999; 3_000; 6_000; 9_000 ]
          && List.for_all
               (fun p ->
                 Element.contains_period ~now a p
                 = match Period.ground ~now p with None -> true | Some g -> covered g)
               (Element.periods b)
          && Element.ground ~now (Element.complement ~now ~within a)
             = Element_naive.normalized
                 (Element_naive.difference (Option.to_list (Period.ground ~now within)) ga)))

(* Printing returns the literal exactly as written, whatever its order,
   overlaps, inverted periods or NOW-relative endpoints. *)
let prop_text_as_written =
  QCheck.Test.make ~name:"to_string (of_string_exn s) = s as written" ~count:1000
    written_arb (fun e ->
      let text =
        "{" ^ String.concat ", " (List.map Period.to_string (Element.periods e)) ^ "}"
      in
      String.equal (Element.to_string (Element.of_string_exn text)) text)

(* --- Algebraic laws -------------------------------------------------- *)

let to_el ps = Element.of_ground_list ps

let prop_union_commutes =
  QCheck.Test.make ~name:"union commutative" ~count:500 binop_arb
    (fun (a, b) ->
      Element.equal
        (Element.union ~now (to_el a) (to_el b))
        (Element.union ~now (to_el b) (to_el a)))

let prop_intersect_subset =
  QCheck.Test.make ~name:"a ∩ b ⊆ a" ~count:500 binop_arb (fun (a, b) ->
      Element.contains ~now (to_el a)
        (Element.intersect ~now (to_el a) (to_el b)))

let prop_difference_disjoint =
  QCheck.Test.make ~name:"(a - b) ∩ b = ∅" ~count:500 binop_arb
    (fun (a, b) ->
      Element.is_empty ~now
        (Element.intersect ~now
           (Element.difference ~now (to_el a) (to_el b))
           (to_el b)))

let prop_partition_lengths =
  QCheck.Test.make ~name:"|a| = |a-b| + |a∩b|" ~count:500 binop_arb
    (fun (a, b) ->
      let ea = to_el a and eb = to_el b in
      (* Lengths measure closed periods discretely here: count chronons. *)
      let chronons e =
        List.fold_left
          (fun acc (s, e) ->
            acc + Span.to_seconds (Chronon.diff e s) + 1)
          0
          (Element.ground ~now e)
      in
      chronons ea
      = chronons (Element.difference ~now ea eb)
        + chronons (Element.intersect ~now ea eb))

let prop_normalized_invariant =
  QCheck.Test.make ~name:"ground output sorted, disjoint, non-adjacent"
    ~count:1000 ground_set_arb (fun ps ->
      let rec ok = function
        | [] | [ _ ] -> true
        | (s1, e1) :: ((s2, _) :: _ as rest) ->
          Chronon.compare s1 e1 <= 0
          && Chronon.compare (Chronon.succ e1) s2 < 0
          && ok rest
      in
      ok (via_element ps))

let suite =
  [ Alcotest.test_case "paper example" `Quick check_paper_example;
    Alcotest.test_case "normalization" `Quick check_normalize;
    Alcotest.test_case "set operations" `Quick check_set_ops;
    Alcotest.test_case "NOW-relative elements" `Quick check_now_relative;
    Alcotest.test_case "observers" `Quick check_observers;
    Alcotest.test_case "complement" `Quick check_complement;
    Alcotest.test_case "numbers past max_int" `Quick check_literal_overflow;
    QCheck_alcotest.to_alcotest prop_normalize_matches_naive;
    QCheck_alcotest.to_alcotest prop_union_matches;
    QCheck_alcotest.to_alcotest prop_intersect_matches;
    QCheck_alcotest.to_alcotest prop_difference_matches;
    QCheck_alcotest.to_alcotest prop_overlaps_matches;
    QCheck_alcotest.to_alcotest prop_overlap_matches_overlaps;
    QCheck_alcotest.to_alcotest prop_coalesce_bounds_is_normalize;
    QCheck_alcotest.to_alcotest prop_one_period_overlap;
    QCheck_alcotest.to_alcotest prop_group_sweep_matches_naive;
    QCheck_alcotest.to_alcotest prop_observers_match;
    QCheck_alcotest.to_alcotest prop_contains_match;
    QCheck_alcotest.to_alcotest prop_text_as_written;
    QCheck_alcotest.to_alcotest prop_union_commutes;
    QCheck_alcotest.to_alcotest prop_intersect_subset;
    QCheck_alcotest.to_alcotest prop_difference_disjoint;
    QCheck_alcotest.to_alcotest prop_partition_lengths;
    QCheck_alcotest.to_alcotest prop_normalized_invariant ]
