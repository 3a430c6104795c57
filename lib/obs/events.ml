(* The structured event journal. One line per event on disk:

     <unix_seconds>\t<kind>\t<detail>

   with tabs and newlines in the detail escaped, so the file greps
   cleanly and reloads losslessly. *)

type event = { ev_seq : int; ev_at : float; ev_kind : string; ev_detail : string }

let window = 4096
let lock = Mutex.create ()
let mem : event list ref = ref [] (* newest first *)
let count = ref 0
let path : string option ref = ref None

let locked f = Mutex.protect lock f

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\t' -> Buffer.add_string buf "\\t"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\\' -> Buffer.add_string buf "\\\\"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  let n = String.length s in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then begin
       (match s.[!i + 1] with
       | 't' -> Buffer.add_char buf '\t'
       | 'n' -> Buffer.add_char buf '\n'
       | c -> Buffer.add_char buf c);
       incr i
     end
     else Buffer.add_char buf s.[!i]);
    incr i
  done;
  Buffer.contents buf

let push ev =
  mem := ev :: !mem;
  incr count;
  (* trim lazily: the window only matters within 2x *)
  if !count > 2 * window then begin
    let rec take n = function
      | x :: rest when n > 0 -> x :: take (n - 1) rest
      | _ -> []
    in
    mem := take window !mem;
    count := window
  end

let parse_line seq line =
  match String.split_on_char '\t' line with
  | at :: kind :: rest -> (
    match float_of_string_opt at with
    | Some at ->
      Some
        { ev_seq = seq; ev_at = at; ev_kind = kind;
          ev_detail = unescape (String.concat "\t" rest) }
    | None -> None)
  | _ -> None

let set_journal p =
  locked (fun () ->
      path := p;
      mem := [];
      count := 0;
      match p with
      | None -> ()
      | Some file when Sys.file_exists file ->
        let ic = open_in file in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            (try
               let seq = ref 0 in
               while true do
                 (match parse_line !seq (input_line ic) with
                 | Some ev ->
                   push ev;
                   incr seq
                 | None -> ())
               done
             with End_of_file -> ()))
      | Some _ -> ())

let record ~kind ~detail =
  locked (fun () ->
      let ev =
        { ev_seq = !count; ev_at = Unix.gettimeofday (); ev_kind = kind;
          ev_detail = detail }
      in
      push ev;
      match !path with
      | None -> ()
      | Some file -> (
        try
          let oc =
            open_out_gen [ Open_append; Open_creat ] 0o644 file
          in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () ->
              Printf.fprintf oc "%.3f\t%s\t%s\n" ev.ev_at (escape ev.ev_kind)
                (escape ev.ev_detail))
        with Sys_error _ -> ()))

let events () =
  locked (fun () ->
      let rec take n = function
        | x :: rest when n > 0 -> x :: take (n - 1) rest
        | _ -> []
      in
      List.rev (take window !mem))

let reset () =
  locked (fun () ->
      mem := [];
      count := 0;
      path := None)

(* --- supervised threads ---------------------------------------------- *)

let log_src = Logs.Src.create "tip.threads" ~doc:"TIP background threads"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_thread_crashes =
  Metrics.counter "thread_crashes_total"
    ~help:"Threads and domain jobs ended by an exception"

let guard ~name ?(on_crash = ignore) f =
  try f ()
  with e ->
    let msg = Printexc.to_string e in
    Log.err (fun m -> m "%s raised: %s" name msg);
    Metrics.incr m_thread_crashes;
    record ~kind:"thread_crash" ~detail:(Printf.sprintf "%s: %s" name msg);
    (try on_crash e with _ -> ())

let spawn ~name ?on_crash f =
  Thread.create (fun () -> guard ~name ?on_crash f) ()
