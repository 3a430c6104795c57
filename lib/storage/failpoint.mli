(** Deterministic fault injection for the durability path.

    All durability I/O (WAL appends, snapshot writes, fsyncs, renames)
    is routed through the wrappers below, each tagged with a site name.
    Arming a site makes its k-th invocation misbehave: crash (raise
    {!Crash}, standing for the process dying), write a prefix and then
    crash (a torn write), flip one bit (media corruption), or raise a
    plain [Failure] (an unexpected software error).

    Sites can also be armed from the environment:
    [TIP_FAILPOINTS="wal.write:3:crash,wal.write:5:shortwrite=7"].

    Armed sites and counters are global mutable state; tests call
    {!reset} between cases. With nothing armed the wrappers reduce to
    plain I/O and the per-site counters are not even maintained. *)

exception Crash of string

type action =
  | Crash_now  (** raise {!Crash} instead of performing the I/O *)
  | Short_write of int  (** write only the first N bytes, then crash *)
  | Bit_flip of int  (** flip bit N (mod payload size), then continue *)
  | Fail of string  (** raise [Failure msg] — a generic software fault *)
  | Drop  (** stream sites: swallow the payload, sever the link *)
  | Delay of float  (** stream sites: sleep this long before delivering *)

(** Arms [site] so that its [hit]-th invocation (1-based) performs
    [action]. Multiple arms may target the same site. *)
val arm : site:string -> hit:int -> action -> unit

(** Disarms everything and zeroes all invocation counters (including
    clauses loaded from TIP_FAILPOINTS). *)
val reset : unit -> unit

(** Whether any failpoint is currently armed. *)
val active : unit -> bool

(** A control-flow-only site: honours [Crash_now], [Fail] and [Delay]. *)
val hit : site:string -> unit -> unit

(** Writes the whole buffer to [fd] (short writes are retried), subject
    to the failpoint armed at [site]. *)
val write : site:string -> Unix.file_descr -> Bytes.t -> unit

val fsync : site:string -> Unix.file_descr -> unit
val rename : site:string -> string -> string -> unit

(** The whole contents of [path]. No failpoint site: faults are
    injected where the bytes are written.
    @raise Sys_error when the file cannot be read. *)
val read_file : string -> string

(** Writes [path] through [path.tmp], fsync and rename, at the sites
    [<sites>.write], [<sites>.fsync] and [<sites>.rename]. *)
val write_file_atomic : sites:string -> string -> string -> unit

(** A replication-stream site. Decides what, if anything, of [payload]
    goes on the wire and whether the connection is killed afterwards:
    returns [(what_to_send, kill_link_after)]. [Drop] yields
    [(None, true)] — the payload is lost and the link severed, so the
    receiver's resume-from-confirmed-offset path engages; [Short_write
    n] ships an n-byte prefix then severs; [Bit_flip] corrupts the
    payload silently and keeps the link up; [Delay s] sleeps then
    delivers intact. TIP_FAILPOINTS actions [drop] and [delay=SECS]
    map to the two stream-only constructors. *)
val stream : site:string -> string -> string option * bool
