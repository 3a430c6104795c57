(* A [Chronon] is a specific point on the time line at one-second
   granularity: seconds since 1970-01-01 00:00:00 on the proleptic
   Gregorian calendar.

   Civil-date conversions and the printed form come from Civil, the
   literal from Scan. *)

type t = int

let epoch = 0

let compare = Int.compare
let equal = Int.equal

(* Monomorphic: [Stdlib.min] would drag every comparison in the hot
   element algebra through the polymorphic compare runtime. *)
let min (a : int) (b : int) = if a <= b then a else b
let max (a : int) (b : int) = if a >= b then a else b
let hash t = t

let to_unix_seconds t = t
let of_unix_seconds sec = sec

let add c span = c + Span.to_seconds span
let sub c span = c - Span.to_seconds span
let diff a b = Span.of_seconds (a - b)

let succ c = c + 1
let pred c = c - 1

let is_leap_year = Civil.is_leap_year
let days_in_month = Civil.days_in_month
let of_civil = Civil.seconds

let of_ymd year month day =
  of_civil ~year ~month ~day ~hour:0 ~minute:0 ~second:0

let to_civil = Civil.to_civil
let year t = let y, _, _, _, _, _ = to_civil t in y

(* Truncates to midnight of the same civil day. *)
let start_of_day t = Civil.day_of t * Span.seconds_per_day

let to_buffer = Civil.add_date

let to_string t =
  let b = Buffer.create 20 in
  to_buffer b t;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)

let of_string_exn = Scan.chronon

let of_string str =
  try Some (of_string_exn str) with Scan.Parse_error _ -> None
