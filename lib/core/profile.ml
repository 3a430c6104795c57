(* Temporal profiles: integer-valued step functions over the time line.

   A profile answers "how many facts were true at each instant" — the
   per-instant aggregation that TSQL2 calls sequenced COUNT and that
   plain SQL plus TIP routines cannot express (the E12 gap). The
   representation is the minimal list of disjoint, value-labelled ground
   periods, ascending, with zero-valued gaps omitted:

     {[1999-01-01, 1999-02-28]:1, [1999-03-01, 1999-04-30]:3, ...}

   Construction is a sweep over period endpoints: O(n log n) for n input
   periods, independently of the time-line length. *)

type entry = { span_ : Period.ground; value : int }

type t = entry list (* ascending, disjoint, value <> 0 *)

let empty = []
let entries t = t
let is_empty t = t = []

(* --- Construction ----------------------------------------------------- *)

(* Endpoint sweep: +delta at start, -delta just after end. *)
let of_weighted_ground (weighted : (Period.ground list * int) list) : t =
  let events = ref [] in
  List.iter
    (fun (ground, weight) ->
      List.iter
        (fun (s, e) ->
          events := (Chronon.to_unix_seconds s, weight) :: !events;
          events := (Chronon.to_unix_seconds e + 1, -weight) :: !events)
        ground)
    weighted;
  let events =
    List.sort (fun (a, _) (b, _) -> Int.compare a b) !events
  in
  (* Merge simultaneous events, then emit one entry per maximal run of a
     constant non-zero value. *)
  let rec sweep acc current_value run_start = function
    | [] -> acc
    | (at, delta) :: rest ->
      let deltas_here, rest =
        let rec take acc = function
          | (at', d) :: tl when at' = at -> take (acc + d) tl
          | tl -> (acc, tl)
        in
        take delta rest
      in
      let next_value = current_value + deltas_here in
      if next_value = current_value then sweep acc current_value run_start rest
      else begin
        let acc =
          match run_start with
          | Some (start, v) when v <> 0 && at > start ->
            { span_ =
                (Chronon.of_unix_seconds start, Chronon.of_unix_seconds (at - 1));
              value = v }
            :: acc
          | Some _ | None -> acc
        in
        sweep acc next_value (Some (at, next_value)) rest
      end
  in
  List.rev (sweep [] 0 None events)

(* Per-instant count of a collection of elements. *)
let of_elements ~now elements =
  of_weighted_ground (List.map (fun e -> (Element.ground ~now e, 1)) elements)

let of_element ~now e = of_elements ~now [ e ]

(* --- Observation -------------------------------------------------------- *)

let value_at t chronon =
  let rec go = function
    | [] -> 0
    | { span_ = (s, e); value } :: rest ->
      if Chronon.compare chronon s < 0 then 0
      else if Chronon.compare chronon e <= 0 then value
      else go rest
  in
  go t

let max_value t = List.fold_left (fun m { value; _ } -> Stdlib.max m value) 0 t
let min_nonzero t =
  List.fold_left (fun m { value; _ } -> Stdlib.min m value) max_int t
  |> fun m -> if m = max_int then 0 else m

(* The instants where the profile reaches its maximum, as an element. *)
let argmax t =
  let m = max_value t in
  Element.of_ground_list
    (List.filter_map
       (fun { span_; value } -> if value = m && m > 0 then Some span_ else None)
       t)

(* Chronons covered with value >= threshold, as an element. *)
let at_least t threshold =
  Element.of_ground_list
    (List.filter_map
       (fun { span_; value } -> if value >= threshold then Some span_ else None)
       t)

(* Time-weighted integral: sum over entries of value * duration (in
   seconds, counting closed periods discretely). *)
let integral t =
  List.fold_left
    (fun acc { span_ = (s, e); value } ->
      acc + (value * (Span.to_seconds (Chronon.diff e s) + 1)))
    0 t

let equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         x.value = y.value
         && Chronon.equal (fst x.span_) (fst y.span_)
         && Chronon.equal (snd x.span_) (snd y.span_))
       a b

(* --- Text ------------------------------------------------------------------ *)

let to_buffer b t =
  Buffer.add_char b '{';
  List.iteri
    (fun i { span_ = (s, e); value } ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_char b '[';
      Chronon.to_buffer b s;
      Buffer.add_string b ", ";
      Chronon.to_buffer b e;
      Buffer.add_string b "]:";
      Digits.add_int b value)
    t;
  Buffer.add_char b '}'

let to_string t =
  let b = Buffer.create 96 in
  to_buffer b t;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)

let scan s =
  Scan.expect_char s '{';
  Scan.skip_ws s;
  if Scan.eat_char s '}' then []
  else begin
    let entry () =
      Scan.expect_char s '[';
      Scan.skip_ws s;
      let start_ = Chronon.scan s in
      Scan.skip_ws s;
      Scan.expect_char s ',';
      Scan.skip_ws s;
      let end_ = Chronon.scan s in
      Scan.skip_ws s;
      Scan.expect_char s ']';
      Scan.expect_char s ':';
      let negative = Scan.eat_char s '-' in
      let v = Scan.unsigned_int s in
      { span_ = (start_, end_); value = (if negative then -v else v) }
    in
    let rec loop acc =
      let e = entry () in
      Scan.skip_ws s;
      if Scan.eat_char s ',' then begin
        Scan.skip_ws s;
        loop (e :: acc)
      end
      else begin
        Scan.expect_char s '}';
        List.rev (e :: acc)
      end
    in
    loop []
  end

let of_string str =
  try Some (Scan.parse_all scan str) with Scan.Parse_error _ -> None

let of_string_exn str = Scan.parse_all scan str

(* Invariants, used by tests: ascending, disjoint, non-zero values. *)
let check_invariants t =
  let rec go = function
    | [] | [ _ ] -> true
    | a :: (b :: _ as rest) ->
      Chronon.compare (snd a.span_) (fst b.span_) < 0 && go rest
  in
  List.for_all
    (fun { span_ = (s, e); value } -> Chronon.compare s e <= 0 && value <> 0)
    t
  && go t
