(* A [Chronon] is a specific point on the time line at one-second
   granularity: seconds since 1970-01-01 00:00:00 on the proleptic
   Gregorian calendar.

   Civil-date conversions use Howard Hinnant's days_from_civil /
   civil_from_days algorithms, which are exact over the whole proleptic
   Gregorian calendar (including negative years). *)

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

(* Floor division/modulo; OCaml's (/) truncates toward zero. *)
let floor_div a b =
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

let floor_mod a b = a - floor_div a b * b

let days_from_civil ~year ~month ~day =
  let y = if month <= 2 then year - 1 else year in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - era * 400 in
  let mp = if month > 2 then month - 3 else month + 9 in
  let doy = (153 * mp + 2) / 5 + day - 1 in
  let doe = (yoe * 365) + (yoe / 4) - (yoe / 100) + doy in
  (era * 146_097) + doe - 719_468

(* The civil date of a day number packed into an immediate int (year,
   4 bits of month, 5 of day), so that printing builds no tuple. *)
let civil_from_days z =
  let z = z + 719_468 in
  let era = (if z >= 0 then z else z - 146_096) / 146_097 in
  let doe = z - (era * 146_097) in
  let yoe = (doe - (doe / 1_460) + (doe / 36_524) - (doe / 146_096)) / 365 in
  let y = yoe + (era * 400) in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let day = doy - (((153 * mp) + 2) / 5) + 1 in
  let month = if mp < 10 then mp + 3 else mp - 9 in
  let year = if month <= 2 then y + 1 else y in
  (year lsl 9) lor (month lsl 5) lor day

let civil_year packed = packed asr 9
let civil_month packed = (packed lsr 5) land 15
let civil_day packed = packed land 31

let is_leap_year y = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0

let days_in_month y m =
  match m with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if is_leap_year y then 29 else 28
  | _ -> invalid_arg "Chronon.days_in_month"

let check_civil ~year ~month ~day ~hour ~minute ~second =
  if month < 1 || month > 12 then invalid_arg "Chronon: month out of range";
  if day < 1 || day > days_in_month year month then
    invalid_arg "Chronon: day out of range";
  if hour < 0 || hour > 23 then invalid_arg "Chronon: hour out of range";
  if minute < 0 || minute > 59 then invalid_arg "Chronon: minute out of range";
  if second < 0 || second > 59 then invalid_arg "Chronon: second out of range"

let of_civil ~year ~month ~day ~hour ~minute ~second =
  check_civil ~year ~month ~day ~hour ~minute ~second;
  (days_from_civil ~year ~month ~day * Span.seconds_per_day)
  + (hour * 3_600) + (minute * 60) + second

let of_ymd year month day =
  of_civil ~year ~month ~day ~hour:0 ~minute:0 ~second:0

let to_civil t =
  let days = floor_div t Span.seconds_per_day in
  let rest = floor_mod t Span.seconds_per_day in
  let civil = civil_from_days days in
  ( civil_year civil, civil_month civil, civil_day civil,
    rest / 3_600, rest mod 3_600 / 60, rest mod 60 )

let year t = let y, _, _, _, _, _ = to_civil t in y

(* Truncates to midnight of the same civil day. *)
let start_of_day t = floor_div t Span.seconds_per_day * Span.seconds_per_day

(* yyyy-mm-dd, plus " hh:mm:ss" off midnight: Printf's "%04d" year
   (a sign, then at least four digits) and two-digit fields. *)
let to_buffer b t =
  let civil = civil_from_days (floor_div t Span.seconds_per_day) in
  let rest = floor_mod t Span.seconds_per_day in
  Digits.add_padded b ~width:4 (civil_year civil);
  Buffer.add_char b '-';
  Digits.add_padded b ~width:2 (civil_month civil);
  Buffer.add_char b '-';
  Digits.add_padded b ~width:2 (civil_day civil);
  if rest <> 0 then begin
    Buffer.add_char b ' ';
    Digits.add_padded b ~width:2 (rest / 3_600);
    Buffer.add_char b ':';
    Digits.add_padded b ~width:2 (rest mod 3_600 / 60);
    Buffer.add_char b ':';
    Digits.add_padded b ~width:2 (rest mod 60)
  end

let to_string t =
  let b = Buffer.create 20 in
  to_buffer b t;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* The optional " hh:mm:ss" after a date; a space not followed by a
   digit belongs to the surrounding context. *)
let time_field s ~timed ~sep =
  if not timed then 0
  else (if sep then Scan.expect_char s ':'; Scan.unsigned_int s)

(* Grammar: yyyy-mm-dd [hh:mm:ss]; a leading '-' gives negative years. *)
let scan s =
  let negative_year = Scan.eat_char s '-' in
  let y = Scan.unsigned_int s in
  let year = if negative_year then -y else y in
  Scan.expect_char s '-';
  let month = Scan.unsigned_int s in
  Scan.expect_char s '-';
  let day = Scan.unsigned_int s in
  let saved = s.Scan.pos in
  let timed = Scan.eat_char s ' ' && Scan.at_digit s in
  if not timed then s.Scan.pos <- saved;
  let hour = time_field s ~timed ~sep:false in
  let minute = time_field s ~timed ~sep:true in
  let second = time_field s ~timed ~sep:true in
  try of_civil ~year ~month ~day ~hour ~minute ~second
  with Invalid_argument msg -> Scan.fail s msg

let of_string str =
  try Some (Scan.parse_all scan str) with Scan.Parse_error _ -> None

let of_string_exn str = Scan.parse_all scan str
