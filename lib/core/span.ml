(* A [Span] is a signed duration, stored as a whole number of seconds.

   The external notation is the paper's [+|-]days[ hours:minutes:seconds]:
   "7 12:00:00" is seven and a half days, "-7" is seven days back,
   "0 08:00:00" is eight hours. *)

type t = int

let seconds_per_minute = 60
let seconds_per_hour = 3_600
let seconds_per_day = 86_400

let zero = 0

let of_seconds sec = sec
let to_seconds t = t

let of_minutes m = m * seconds_per_minute
let of_hours h = h * seconds_per_hour
let of_days d = d * seconds_per_day
let of_weeks w = w * 7 * seconds_per_day

let of_dhms ~days ~hours ~minutes ~seconds =
  if hours < 0 || hours > 23 then invalid_arg "Span.of_dhms: hours";
  if minutes < 0 || minutes > 59 then invalid_arg "Span.of_dhms: minutes";
  if seconds < 0 || seconds > 59 then invalid_arg "Span.of_dhms: seconds";
  let magnitude =
    abs days * seconds_per_day + hours * seconds_per_hour
    + minutes * seconds_per_minute + seconds
  in
  if days < 0 then -magnitude else magnitude

let days t = abs t / seconds_per_day
let is_negative t = t < 0

let add = ( + )
let sub = ( - )
let neg t = -t
let abs = abs
let scale_int t k = t * k

(* Fractional scaling rounds to the nearest whole second. *)
let scale_float t x =
  int_of_float (Float.round (float_of_int t *. x))

let ratio a b =
  if b = 0 then invalid_arg "Span.ratio: zero divisor";
  float_of_int a /. float_of_int b

let compare = Int.compare
let equal = Int.equal
let min (a : int) (b : int) = if a <= b then a else b
let max (a : int) (b : int) = if a >= b then a else b

let to_buffer b t =
  let magnitude = Stdlib.abs t in
  let d = magnitude / seconds_per_day in
  let rest = magnitude mod seconds_per_day in
  if t < 0 then Buffer.add_char b '-';
  Digits.add_int b d;
  if rest <> 0 then begin
    Buffer.add_char b ' ';
    Digits.add_padded b ~width:2 (rest / seconds_per_hour);
    Buffer.add_char b ':';
    Digits.add_padded b ~width:2 (rest mod seconds_per_hour / seconds_per_minute);
    Buffer.add_char b ':';
    Digits.add_padded b ~width:2 (rest mod seconds_per_minute)
  end

let to_string t =
  let b = Buffer.create 16 in
  to_buffer b t;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* Grammar: ['+'|'-'] days [' ' hh ':' mm ':' ss]. The optional time part
   is bounded (hh<=23 etc.) so that the printed form round-trips. *)
let scan s =
  let negative =
    if Scan.eat_char s '-' then true
    else begin
      ignore (Scan.eat_char s '+');
      false
    end
  in
  let d = Scan.unsigned_int s in
  let saved = s.Scan.pos in
  let time_part =
    if Scan.eat_char s ' ' && Scan.at_digit s then begin
      let hh = Scan.unsigned_int s in
      Scan.expect_char s ':';
      let mm = Scan.unsigned_int s in
      Scan.expect_char s ':';
      let ss = Scan.unsigned_int s in
      if hh > 23 || mm > 59 || ss > 59 then
        Scan.fail s "time-of-day component out of range";
      hh * seconds_per_hour + mm * seconds_per_minute + ss
    end
    else begin
      (* A space belongs to the surrounding context, not to us. *)
      s.Scan.pos <- saved;
      0
    end
  in
  if d > (max_int - time_part) / seconds_per_day then
    Scan.fail s "span out of range";
  let magnitude = d * seconds_per_day + time_part in
  if negative then -magnitude else magnitude

let of_string str =
  try Some (Scan.parse_all scan str) with Scan.Parse_error _ -> None

let of_string_exn str = Scan.parse_all scan str
