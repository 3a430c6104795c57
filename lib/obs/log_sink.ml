let lock = Mutex.create ()

let default_sink s =
  output_string stderr (s ^ "\n");
  flush stderr

let sink = ref default_sink
let set_sink f = sink := f

type format = Text | Json

let format_ref =
  ref
    (match Sys.getenv_opt "TIP_LOG_FORMAT" with
    | Some ("json" | "JSON") -> Json
    | _ -> Text)

let format () = !format_ref
let set_format f = format_ref := f

let timestamp () =
  let t = Unix.gettimeofday () in
  let tm = Unix.localtime t in
  let millis = int_of_float ((t -. Float.of_int (int_of_float t)) *. 1000.) in
  Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02d.%03d" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec millis

(* The whole line is built before the lock is taken; the lock only
   covers handing it to the sink, so sessions can never interleave
   fragments of two lines. *)
let emit_raw line = Mutex.protect lock (fun () -> !sink line)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* One structured line: {"ts":...,"level":...,["session":...,]
   "event":...,<fields>}. Every value is a JSON string — consumers get
   a flat, predictable object per line. *)
let json_line ?session ~level ~event fields =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "{\"ts\":\"%s\",\"level\":\"%s\"" (timestamp ())
       (json_escape level));
  (match session with
  | Some id -> Buffer.add_string buf (Printf.sprintf ",\"session\":%d" id)
  | None -> ());
  Buffer.add_string buf
    (Printf.sprintf ",\"event\":\"%s\"" (json_escape event));
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf
        (Printf.sprintf ",\"%s\":\"%s\"" (json_escape k) (json_escape v)))
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

let emit_leveled level s =
  match !format_ref with
  | Text -> emit_raw (timestamp () ^ " " ^ s)
  | Json -> emit_raw (json_line ~level ~event:"log" [ ("message", s) ])

let emit s = emit_leveled "info" s
let line fmt = Format.kasprintf emit fmt

(* Structured event: in JSON mode the fields become the object; in text
   mode [text] (or "event k=v ..." when absent) keeps the historical
   line shape, so log-scraping tests and operators see no change. *)
let event ?session ?(level = "info") ?text ~event:name fields =
  match !format_ref with
  | Json -> emit_raw (json_line ?session ~level ~event:name fields)
  | Text ->
    let s =
      match text with
      | Some s -> s
      | None ->
        name
        ^ String.concat ""
            (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k v) fields)
    in
    emit_raw (timestamp () ^ " " ^ s)

let reporter () =
  let report src level ~over k msgf =
    msgf @@ fun ?header:_ ?tags:_ fmt ->
    Format.kasprintf
      (fun msg ->
        (match !format_ref with
        | Text ->
          emit
            (Printf.sprintf "[%s] [%s] %s"
               (Logs.level_to_string (Some level))
               (Logs.Src.name src) msg)
        | Json ->
          emit_raw
            (json_line
               ~level:(Logs.level_to_string (Some level))
               ~event:"log"
               [ ("src", Logs.Src.name src); ("message", msg) ]));
        over ();
        k ())
      fmt
  in
  { Logs.report }
