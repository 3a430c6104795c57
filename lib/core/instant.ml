(* An [Instant] is either a fixed chronon or a NOW-relative time: an
   offset (a span) from the special symbol NOW, whose interpretation
   changes as time advances. "NOW-1" denotes yesterday.

   All observations of a NOW-relative instant go through [bind], which
   substitutes a concrete chronon (the current transaction time) for NOW.

   Representation: an immediate int holding the seconds (the chronon's
   unix seconds, or the offset) shifted left one bit, with the tag in
   bit 0: clear for a fixed chronon, set for a NOW-relative offset.
   Nothing is boxed, so a period is one flat block of two ints, and the
   shift keeps fixed instants in chronon order. The interface exports
   [t] as [private int] so scan loops in other modules can test the tag
   and shift inline: the build passes [-opaque], so a call into this
   module is never inlined. *)

type t = int

let min_seconds = min_int asr 1
let max_seconds = max_int asr 1
let in_range x = min_seconds <= x && x <= max_seconds

let fixed x = x lsl 1
let relative x = (x lsl 1) lor 1
let seconds t = t asr 1

let is_now_relative t = t land 1 <> 0

let of_chronon c =
  let x = Chronon.to_unix_seconds c in
  if in_range x then fixed x else invalid_arg "Instant.of_chronon: out of range"

let now_plus span =
  let x = Span.to_seconds span in
  if in_range x then relative x else invalid_arg "Instant.now_plus: out of range"

let of_encoding x = x
let now = relative 0
let now_minus span = now_plus (Span.neg span)

let bind ~now:current t =
  if is_now_relative t then Chronon.add current (Span.of_seconds (seconds t))
  else Chronon.of_unix_seconds (seconds t)

(* Adding an even number leaves the tag bit alone. *)
let add t span = t + (Span.to_seconds span lsl 1)

let sub t span = add t (Span.neg span)

(* [diff a b ~now] needs a NOW binding unless both instants move with NOW,
   in which case the offsets subtract exactly. *)
let diff ~now:current a b =
  if is_now_relative a && is_now_relative b then
    Span.of_seconds (seconds a - seconds b)
  else Chronon.diff (bind ~now:current a) (bind ~now:current b)

let compare_at ~now:current a b =
  Chronon.compare (bind ~now:current a) (bind ~now:current b)

(* Structural equality: [NOW-1] equals [NOW-1] but not yesterday's date. *)
let equal = Int.equal

(* NOW, NOW-<span> (the span prints its own sign) or NOW+<span>. *)
let to_buffer b t =
  if is_now_relative t then begin
    let offset = Span.of_seconds (seconds t) in
    Buffer.add_string b "NOW";
    if not (Span.equal offset Span.zero) then begin
      if not (Span.is_negative offset) then Buffer.add_char b '+';
      Span.to_buffer b offset
    end
  end
  else Chronon.to_buffer b (Chronon.of_unix_seconds (seconds t))

let to_string t =
  let b = Buffer.create 20 in
  to_buffer b t;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* A literal whose seconds fall outside the representable range is
   refused here rather than wrapped. *)
let scan s =
  let checked make x =
    if in_range x then make x else Scan.fail s "instant out of range"
  in
  if Scan.eat_keyword s "NOW" then begin
    Scan.skip_ws s;
    if Scan.eat_char s '+' then begin
      Scan.skip_ws s;
      checked relative (Span.to_seconds (Span.scan s))
    end
    else if Scan.eat_char s '-' then begin
      Scan.skip_ws s;
      checked relative (Span.to_seconds (Span.neg (Span.scan s)))
    end
    else now
  end
  else checked fixed (Chronon.to_unix_seconds (Chronon.scan s))

let of_string str =
  try Some (Scan.parse_all scan str) with Scan.Parse_error _ -> None

let of_string_exn str = Scan.parse_all scan str
