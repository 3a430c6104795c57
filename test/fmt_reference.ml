(* The temporal printers as they were written with [Fmt]: the reference
   the buffer writers in [Tip_core] must match byte for byte (the wire,
   snapshot and WAL formats all carry their output). Kept here only as a
   test oracle. *)

open Tip_core

let chronon ppf t =
  let year, month, day, hh, mm, ss = Chronon.to_civil t in
  if hh = 0 && mm = 0 && ss = 0 then Fmt.pf ppf "%04d-%02d-%02d" year month day
  else Fmt.pf ppf "%04d-%02d-%02d %02d:%02d:%02d" year month day hh mm ss

let span ppf t =
  let t = Span.to_seconds t in
  let magnitude = Stdlib.abs t in
  let d = magnitude / Span.seconds_per_day in
  let rest = magnitude mod Span.seconds_per_day in
  let sign = if t < 0 then "-" else "" in
  if rest = 0 then Fmt.pf ppf "%s%d" sign d
  else
    Fmt.pf ppf "%s%d %02d:%02d:%02d" sign d (rest / Span.seconds_per_hour)
      (rest mod Span.seconds_per_hour / Span.seconds_per_minute)
      (rest mod Span.seconds_per_minute)

let instant ppf t =
  if Instant.is_now_relative t then begin
    let offset = Span.of_seconds ((t :> int) asr 1) in
    if Span.equal offset Span.zero then Fmt.string ppf "NOW"
    else if Span.is_negative offset then Fmt.pf ppf "NOW%a" span offset
    else Fmt.pf ppf "NOW+%a" span offset
  end
  else chronon ppf (Chronon.of_unix_seconds ((t :> int) asr 1))

let period ppf p =
  Fmt.pf ppf "[%a, %a]" instant (Period.start_instant p) instant
    (Period.end_instant p)

let element ppf t =
  Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any ", ") period) (Element.periods t)

let profile_entry ppf { Profile.span_ = (s, e); value } =
  Fmt.pf ppf "[%a, %a]:%d" chronon s chronon e value

let profile ppf t =
  Fmt.pf ppf "{%a}"
    (Fmt.list ~sep:(Fmt.any ", ") profile_entry)
    (Profile.entries t)

let str pp v = Fmt.str "%a" pp v
