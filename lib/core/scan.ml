(* The one scanner behind every temporal literal: spans, chronons,
   instants, periods, elements and profiles.

   Each grammar rule takes the cursor and the position of its first
   character and returns the position after it, so the position stays
   in a register from field to field; the value read goes to the
   cursor's [v] (an int: seconds, or an instant's encoding, see
   Instant) or, for a list, [a]. A four-digit date is read by position.
   An element is the one flat array of raw endpoints it is stored as,
   sized by counting its periods' '[' before reading them. Errors name
   what was expected and the position: "expected ',' at position 12 in
   \"...\"". *)

exception Parse_error of string

(* [stop] is [String.length src], read once. *)
type t = { src : string; stop : int; mutable v : int; mutable a : int array }

let fail c p msg =
  raise (Parse_error (Printf.sprintf "%s at position %d in %S" msg p c.src))

(* The character at [i], or NUL past the end. *)
let[@inline] char_at c i = if i < c.stop then String.unsafe_get c.src i else '\000'

let[@inline] is_digit ch = ch >= '0' && ch <= '9'
let[@inline] is_ws ch = ch = ' ' || ch = '\t'

let rec skip_rest c p = if is_ws (char_at c p) then skip_rest c (p + 1) else p
let[@inline] skip_ws c p = if is_ws (char_at c p) then skip_rest c (p + 1) else p

let expected c p ch = fail c p (Printf.sprintf "expected %C" ch)
let[@inline] expect c p ch = if char_at c p = ch then p + 1 else expected c p ch

(* One or more digits into [v]; past [max_int] is an error, not a
   wrapped int. *)
let digits c p =
  let i = ref p and n = ref 0 in
  while !i < c.stop && is_digit (String.unsafe_get c.src !i) do
    let d = Char.code (String.unsafe_get c.src !i) - 48 in
    if !n >= max_int / 10 && !n > (max_int - d) / 10 then
      fail c !i "number out of range";
    n := (!n * 10) + d;
    incr i
  done;
  if !i = p then fail c p "expected digits";
  c.v <- !n;
  !i

(* A space followed by a digit opens a time of day; any other space
   belongs to the surrounding context. *)
let[@inline] timed c p = char_at c p = ' ' && is_digit (char_at c (p + 1))

(* ['+'|'-'] days [' ' hh ':' mm ':' ss], the time of day bounded so
   that the printed form round-trips. *)
let span c p =
  let negative = char_at c p = '-' in
  let p = digits c (if negative || char_at c p = '+' then p + 1 else p) in
  let d = c.v in
  let p, time =
    if timed c p then begin
      let p = digits c (p + 1) in
      let hh = c.v in
      let p = digits c (expect c p ':') in
      let mm = c.v in
      let p = digits c (expect c p ':') in
      if hh > 23 || mm > 59 || c.v > 59 then
        fail c p "time-of-day component out of range";
      (p, (hh * 3_600) + (mm * 60) + c.v)
    end
    else (p, 0)
  in
  if d > (max_int - time) / 86_400 then fail c p "span out of range";
  let magnitude = (d * 86_400) + time in
  c.v <- (if negative then -magnitude else magnitude);
  p

let civil c p ~year ~month ~day ~hour ~minute ~second =
  match Civil.seconds ~year ~month ~day ~hour ~minute ~second with
  | x -> c.v <- x; p
  | exception Invalid_argument msg -> fail c p msg

(* The optional " hh:mm:ss" after a date, then the chronon into [v]. *)
let time_of_day c p ~year ~month ~day =
  if timed c p then begin
    let p = digits c (p + 1) in
    let hour = c.v in
    let p = digits c (expect c p ':') in
    let minute = c.v in
    let p = digits c (expect c p ':') in
    civil c p ~year ~month ~day ~hour ~minute ~second:c.v
  end
  else civil c p ~year ~month ~day ~hour:0 ~minute:0 ~second:0

(* The two-digit number at [i]. *)
let[@inline] two src i =
  (10 * Char.code (String.unsafe_get src i)) + Char.code (String.unsafe_get src (i + 1)) - 528

let[@inline] digit_at src i = is_digit (String.unsafe_get src i)

(* [yyyy-mm-dd] at [p], and no digit after it. *)
let[@inline] dated c p =
  let src = c.src in
  p + 10 <= c.stop
  && String.unsafe_get src (p + 4) = '-'
  && String.unsafe_get src (p + 7) = '-'
  && digit_at src p && digit_at src (p + 1) && digit_at src (p + 2)
  && digit_at src (p + 3) && digit_at src (p + 5) && digit_at src (p + 6)
  && digit_at src (p + 8) && digit_at src (p + 9)
  && not (is_digit (char_at c (p + 10)))

(* ['-'] yyyy '-' mm '-' dd [' ' hh ':' mm ':' ss], as unix seconds;
   the common four-digit date is read by position. *)
let chronon c p =
  let src = c.src in
  if dated c p then
    time_of_day c (p + 10)
      ~year:((100 * two src p) + two src (p + 2))
      ~month:(two src (p + 5)) ~day:(two src (p + 8))
  else begin
    let negative = char_at c p = '-' in
    let p = digits c (if negative then p + 1 else p) in
    let y = c.v in
    let p = digits c (expect c p '-') in
    let month = c.v in
    let p = digits c (expect c p '-') in
    time_of_day c p ~year:(if negative then -y else y) ~month ~day:c.v
  end

(* An instant's encoding into [v]: seconds shifted left one bit, tag in
   bit 0. *)
let[@inline] encode c p ~tag x =
  if x < min_int asr 1 || x > max_int asr 1 then fail c p "instant out of range";
  c.v <- (x lsl 1) lor tag;
  p

let[@inline] at_now c p =
  p + 3 <= c.stop
  && Char.uppercase_ascii (String.unsafe_get c.src p) = 'N'
  && Char.uppercase_ascii (String.unsafe_get c.src (p + 1)) = 'O'
  && Char.uppercase_ascii (String.unsafe_get c.src (p + 2)) = 'W'

(* A chronon, or NOW[ws('+'|'-')ws span] in any case. *)
let instant c p =
  if at_now c p then begin
    let p = skip_ws c (p + 3) in
    match char_at c p with
    | '+' ->
      let p = span c (skip_ws c (p + 1)) in
      encode c p ~tag:1 c.v
    | '-' ->
      let p = span c (skip_ws c (p + 1)) in
      encode c p ~tag:1 (-c.v)
    | _ -> c.v <- 1; p
  end
  else
    let p = chronon c p in
    encode c p ~tag:0 c.v

(* '[' start ',' end ']' with optional whitespace inside, stored at
   [t.(i)] and [t.(i + 1)]. *)
let period_into c t i p =
  let p = instant c (skip_ws c (expect c p '[')) in
  t.(i) <- c.v;
  let p = instant c (skip_ws c (expect c (skip_ws c p) ',')) in
  t.(i + 1) <- c.v;
  expect c (skip_ws c p) ']'

(* '[' chronon ',' chronon ']' ':' ['-'] digits, as three slots. *)
let profile_entry c t i p =
  let p = chronon c (skip_ws c (expect c p '[')) in
  t.(i) <- c.v;
  let p = chronon c (skip_ws c (expect c (skip_ws c p) ',')) in
  t.(i + 1) <- c.v;
  let p = expect c (expect c (skip_ws c p) ']') ':' in
  let negative = char_at c p = '-' in
  let p = digits c (if negative then p + 1 else p) in
  t.(i + 2) <- (if negative then -c.v else c.v);
  p

(* Slots for every '[' from [p] on: each entry of a well-formed list
   opens with one, so a list that parses fits. Eight bytes at a time:
   [z] has the top bit of each byte that equals '[' set. *)
let slots c p ~per =
  let src = c.src and low = 0x7f7f7f7f7f7f7f7fL in
  let n = ref 0 and i = ref p in
  while !i + 8 <= c.stop do
    let x = Int64.logxor (String.get_int64_le src !i) 0x5b5b5b5b5b5b5b5bL in
    let z = Int64.(lognot (logor (logor (add (logand x low) low) x) low)) in
    let ones = Int64.(mul (shift_right_logical z 7) 0x0101010101010101L) in
    n := !n + Int64.to_int (Int64.shift_right_logical ones 56);
    i := !i + 8
  done;
  for j = !i to c.stop - 1 do
    if String.unsafe_get src j = '[' then incr n
  done;
  Array.make (per * !n) 0

(* The entries of a list from slot [i] on, [per] slots each, up to the
   closing '}'; returns the slots filled, the position after it in [v]. *)
let rec entries c t ~per entry i p =
  let p = skip_ws c (entry c t i p) in
  if char_at c p = ',' then entries c t ~per entry (i + per) (skip_ws c (p + 1))
  else (c.v <- expect c p '}'; i + per)

(* '{' [entry {',' entry}] '}' into [a]. *)
let braced c p ~per entry =
  let p = skip_ws c (expect c p '{') in
  if char_at c p = '}' then (c.a <- [||]; p + 1)
  else begin
    let t = slots c p ~per in
    let n = entries c t ~per entry 0 p in
    c.a <- (if n = Array.length t then t else Array.sub t 0 n);
    c.v
  end

let period c p =
  c.a <- Array.make 2 0;
  period_into c c.a 0 p

let element c p = braced c p ~per:2 period_into
let profile c p = braced c p ~per:3 profile_entry

(* [rule] over the whole of [src], with whitespace either side. *)
let whole rule src =
  let c = { src; stop = String.length src; v = 0; a = [||] } in
  let p = skip_ws c (rule c (skip_ws c 0)) in
  if p < c.stop then fail c p "trailing input";
  c

let span src = (whole span src).v
let chronon src = (whole chronon src).v
let instant src = (whole instant src).v
let period src = (whole period src).a
let element src = (whole element src).a
let profile src = (whole profile src).a
