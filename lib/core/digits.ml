(* Decimal integers written straight into a [Buffer.t], byte for byte
   what [Printf]'s ["%d"] and ["%0<w>d"] print, without going through
   the format interpreter. The temporal printers use these for every
   number they emit.

   Digits are produced from the non-positive magnitude, so [min_int]
   (whose absolute value does not exist) prints like any other int. *)

let zero = Char.code '0'

(* [n <= 0]: the digits of [-n], most significant first. *)
let rec add_digits b n =
  if n <= -10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (zero - (n mod 10)))

let rec count_digits n = if n > -10 then 1 else 1 + count_digits (n / 10)

let add_padded b ~width n =
  let magnitude = if n < 0 then n else -n in
  let width = if n < 0 then (Buffer.add_char b '-'; width - 1) else width in
  for _ = count_digits magnitude + 1 to width do
    Buffer.add_char b '0'
  done;
  add_digits b magnitude

let add_int b n = add_padded b ~width:0 n
