(** Decimal integers appended to a buffer without [Printf] or [Format]:
    the digit writer under every temporal printer. *)

(** [add_int b n] appends what [Printf.sprintf "%d" n] prints. *)
val add_int : Buffer.t -> int -> unit

(** [add_padded b ~width n] appends what [Printf.sprintf "%0*d" width n]
    prints: zeros after any sign up to [width] characters in all. *)
val add_padded : Buffer.t -> width:int -> int -> unit
