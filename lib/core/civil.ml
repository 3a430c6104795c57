(* The proleptic Gregorian calendar as day numbers: Howard Hinnant's
   days_from_civil / civil_from_days, exact over the whole calendar
   (negative years included), and the fixed-width text of a date. *)

let is_leap_year y = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0

let[@inline] days_in_month y m =
  match m with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if is_leap_year y then 29 else 28
  | _ -> invalid_arg "Chronon.days_in_month"

(* Days before each month of a year that starts in March. *)
let march_days = [| 0; 31; 61; 92; 122; 153; 184; 214; 245; 275; 306; 337 |]

let seconds ~year ~month ~day ~hour ~minute ~second =
  if month < 1 || month > 12 then invalid_arg "Chronon: month out of range";
  if day < 1 || (day > 28 && day > days_in_month year month) then
    invalid_arg "Chronon: day out of range";
  if hour < 0 || hour > 23 then invalid_arg "Chronon: hour out of range";
  if minute < 0 || minute > 59 then invalid_arg "Chronon: minute out of range";
  if second < 0 || second > 59 then invalid_arg "Chronon: second out of range";
  let y = if month <= 2 then year - 1 else year in
  let era = (if y >= 0 then y else y - 399) / 400 in
  let yoe = y - (era * 400) in
  let days =
    (era * 146_097) + (yoe * 365) + (yoe lsr 2) - (yoe / 100) - 719_469 + day
    + Array.unsafe_get march_days (if month > 2 then month - 3 else month + 9)
  in
  (days * 86_400) + (hour * 3_600) + (minute * 60) + second

(* Floor division by a day: (/) truncates toward zero. *)
let day_of t = if t >= 0 then t / 86_400 else ((t + 1) / 86_400) - 1

(* The civil date of a day number packed into an immediate int (year,
   4 bits of month, 5 of day), so that printing builds no tuple. *)
let civil_from_days z =
  let z = z + 719_468 in
  let era = (if z >= 0 then z else z - 146_096) / 146_097 in
  let doe = z - (era * 146_097) in
  let yoe = (doe - (doe / 1_460) + (doe / 36_524) - (doe / 146_096)) / 365 in
  let doy = doe - ((365 * yoe) + (yoe / 4) - (yoe / 100)) in
  let mp = ((5 * doy) + 2) / 153 in
  let month = if mp < 10 then mp + 3 else mp - 9 in
  let year = yoe + (era * 400) + if month <= 2 then 1 else 0 in
  (year lsl 9) lor (month lsl 5) lor (doy - (((153 * mp) + 2) / 5) + 1)

let to_civil t =
  let days = day_of t in
  let civil = civil_from_days days and rest = t - (days * 86_400) in
  ( civil asr 9, (civil lsr 5) land 15, civil land 31,
    rest / 3_600, rest mod 3_600 / 60, rest mod 60 )

(* "00" to "99" as 16-bit ints, first digit in the low byte: one
   little-endian store writes both. *)
let pairs =
  Array.init 100 (fun n -> (48 + (n / 10)) lor ((48 + (n mod 10)) lsl 8))

let[@inline] pair n = Array.unsafe_get pairs n
let[@inline] add_2 b n = Buffer.add_int16_le b (pair n)

(* Printf's "%04d" year (a sign, then at least four digits), then
   two-digit fields, " hh:mm:ss" only off midnight. *)
let add_date b t =
  let days = day_of t in
  let civil = civil_from_days days and rest = t - (days * 86_400) in
  let y = civil asr 9 and month = (civil lsr 5) land 15 in
  if y >= 0 && y <= 9_999 then
    (* "yyyy-mm-" in one eight-byte store; '-' is 0x2d *)
    Buffer.add_int64_le b
      Int64.(
        logor (shift_left 0x2dL 56)
          (of_int
             (pair (y / 100) lor (pair (y mod 100) lsl 16) lor (0x2d lsl 32)
             lor (pair month lsl 40))))
  else begin
    Digits.add_padded b ~width:4 y;
    Buffer.add_char b '-';
    add_2 b month;
    Buffer.add_char b '-'
  end;
  add_2 b (civil land 31);
  if rest <> 0 then begin
    Buffer.add_char b ' ';
    add_2 b (rest / 3_600);
    Buffer.add_char b ':';
    add_2 b (rest mod 3_600 / 60);
    Buffer.add_char b ':';
    add_2 b (rest mod 60)
  end
