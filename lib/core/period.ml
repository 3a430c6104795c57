(* A [Period] is a pair of instants: the first marks the start and the
   second the end of a closed interval [start, end] of chronons.

   Because either endpoint may be NOW-relative ("[1999-01-01, NOW]" is
   "since 1999"), most observations take a [~now] binding. A period whose
   bound start exceeds its bound end denotes the empty set of chronons;
   such periods can arise transiently (e.g. [NOW, 1999-01-01] once NOW has
   advanced past 1999) and every operation treats them as empty. *)

type t = { start_ : Instant.t; end_ : Instant.t }

type ground = Chronon.t * Chronon.t

let make ~start_ ~end_ = { start_; end_ }
let of_instants start_ end_ = { start_; end_ }
let of_chronons s e = { start_ = Instant.of_chronon s; end_ = Instant.of_chronon e }
let of_chronon c = of_chronons c c
let since c = { start_ = Instant.of_chronon c; end_ = Instant.now }
let past span = { start_ = Instant.now_minus span; end_ = Instant.now }

let start_instant t = t.start_
let end_instant t = t.end_
let is_now_relative t =
  Instant.is_now_relative t.start_ || Instant.is_now_relative t.end_

let ground ~now t : ground option =
  let s = Instant.bind ~now t.start_ in
  let e = Instant.bind ~now t.end_ in
  if Chronon.compare s e > 0 then None else Some (s, e)

let of_ground (s, e) = of_chronons s e

let is_empty ~now t = Option.is_none (ground ~now t)

let start_at ~now t = Option.map fst (ground ~now t)
let end_at ~now t = Option.map snd (ground ~now t)

(* Duration of the closed interval, as the span from start to end.
   A single-chronon period has zero duration under this (continuous)
   reading; [None] for empty periods. *)
let duration ~now t =
  match ground ~now t with
  | None -> None
  | Some (s, e) -> Some (Chronon.diff e s)

let contains_chronon ~now t c =
  match ground ~now t with
  | None -> false
  | Some (s, e) -> Chronon.compare s c <= 0 && Chronon.compare c e <= 0

let ground_overlaps (s1, e1) (s2, e2) =
  Chronon.compare s1 e2 <= 0 && Chronon.compare s2 e1 <= 0

let overlaps ~now a b =
  match ground ~now a, ground ~now b with
  | Some ga, Some gb -> ground_overlaps ga gb
  | None, _ | _, None -> false

let contains_period ~now a b =
  match ground ~now a, ground ~now b with
  | Some (s1, e1), Some (s2, e2) ->
    Chronon.compare s1 s2 <= 0 && Chronon.compare e2 e1 <= 0
  | _, None -> true (* every period contains the empty period *)
  | None, Some _ -> false

let intersect ~now a b =
  match ground ~now a, ground ~now b with
  | Some (s1, e1), Some (s2, e2) ->
    let s = Chronon.max s1 s2 and e = Chronon.min e1 e2 in
    if Chronon.compare s e <= 0 then Some (of_chronons s e) else None
  | None, _ | _, None -> None

(* Smallest single period covering both; [None] when both are empty. *)
let span_of ~now a b =
  match ground ~now a, ground ~now b with
  | Some (s1, e1), Some (s2, e2) ->
    Some (of_chronons (Chronon.min s1 s2) (Chronon.max e1 e2))
  | Some g, None | None, Some g -> Some (of_ground g)
  | None, None -> None

(* Structural equality of the representation (NOW kept symbolic). *)
let equal a b =
  Instant.equal a.start_ b.start_ && Instant.equal a.end_ b.end_

(* Set equality under a NOW binding. *)
let equal_at ~now a b =
  match ground ~now a, ground ~now b with
  | None, None -> true
  | Some (s1, e1), Some (s2, e2) -> Chronon.equal s1 s2 && Chronon.equal e1 e2
  | None, Some _ | Some _, None -> false

let to_buffer b t =
  Buffer.add_char b '[';
  Instant.to_buffer b t.start_;
  Buffer.add_string b ", ";
  Instant.to_buffer b t.end_;
  Buffer.add_char b ']'

let to_string t =
  let b = Buffer.create 32 in
  to_buffer b t;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)

let scan s =
  Scan.expect_char s '[';
  Scan.skip_ws s;
  let start_ = Instant.scan s in
  Scan.skip_ws s;
  Scan.expect_char s ',';
  Scan.skip_ws s;
  let end_ = Instant.scan s in
  Scan.skip_ws s;
  Scan.expect_char s ']';
  { start_; end_ }

let of_string str =
  try Some (Scan.parse_all scan str) with Scan.Parse_error _ -> None

let of_string_exn str = Scan.parse_all scan str
