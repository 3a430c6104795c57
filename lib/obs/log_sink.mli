(** Mutex-guarded, timestamped log sink.

    The server handles each client on its own thread; naive
    [Printf.printf] log lines from concurrent sessions interleave
    mid-line. Every line routed through this sink is formatted in
    full, timestamped, and emitted atomically under one process-wide
    mutex.

    Two output formats: [Text] (the default; [<ts> <message>] lines)
    and [Json] (one structured object per line with [ts], [level],
    optional [session], [event] and string fields). The format is
    seeded from [TIP_LOG_FORMAT] ([json] switches) and set by
    [tip_serve --log-format]. *)

type format = Text | Json

val format : unit -> format
val set_format : format -> unit

val set_sink : (string -> unit) -> unit
(** Replace the output function (default: stderr + flush). The sink
    receives complete lines without trailing newline (timestamped text
    or one JSON object, per the format). Tests capture lines by
    installing a buffer here. *)

val line : ('a, Format.formatter, unit, unit) format4 -> 'a
(** [line fmt ...] emits one line atomically: timestamped text in
    [Text] mode, a [{"event":"log","message":...}] object in [Json]
    mode. *)

val event :
  ?session:int ->
  ?level:string ->
  ?text:string ->
  event:string ->
  (string * string) list ->
  unit
(** Structured event. [Json] mode emits the fields as one object;
    [Text] mode emits [text] when given (preserving historical line
    shapes, e.g. the slow-query log) or ["<event> k=v ..."] otherwise. *)

val reporter : unit -> Logs.reporter
(** A [Logs] reporter that routes every log message through the sink
    (so [Logs]-based server logging and direct [line] calls share the
    mutex and the format). *)

val json_escape : string -> string
(** The text escaped for the inside of a JSON string literal. *)
