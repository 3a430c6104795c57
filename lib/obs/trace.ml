let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

type span = {
  sp_name : string;
  mutable sp_attrs : (string * string) list;
  mutable sp_start_ns : int;
  mutable sp_elapsed_ns : int;
  mutable sp_children : span list;
}

(* Open spans keep [sp_children] newest-first while children accumulate;
   closing a span reverses the list into start order. [tr_stack] is the
   path of open spans, innermost first. *)
type t = {
  tr_root : span;
  mutable tr_stack : (span * int) list; (* span, start ns *)
}

let fresh name =
  { sp_name = name;
    sp_attrs = [];
    sp_start_ns = -1;
    sp_elapsed_ns = -1;
    sp_children = [] }

let start name =
  let root = fresh name in
  let t0 = now_ns () in
  root.sp_start_ns <- t0;
  { tr_root = root; tr_stack = [ (root, t0) ] }

let root t = t.tr_root

let close_span sp start_ns =
  sp.sp_elapsed_ns <- now_ns () - start_ns;
  sp.sp_children <- List.rev sp.sp_children

let with_span t name f =
  match t.tr_stack with
  | [] -> f () (* trace already finished: run untraced *)
  | (parent, _) :: _ ->
    let sp = fresh name in
    parent.sp_children <- sp :: parent.sp_children;
    let start_ns = now_ns () in
    sp.sp_start_ns <- start_ns;
    t.tr_stack <- (sp, start_ns) :: t.tr_stack;
    Fun.protect
      ~finally:(fun () ->
        close_span sp start_ns;
        (match t.tr_stack with
        | (top, _) :: rest when top == sp -> t.tr_stack <- rest
        | _ -> () (* unbalanced finish already popped us *)))
      f

let annotate t key value =
  match t.tr_stack with
  | [] -> ()
  | (sp, _) :: _ -> sp.sp_attrs <- (key, value) :: sp.sp_attrs

let finish t =
  List.iter (fun (sp, start_ns) -> close_span sp start_ns) t.tr_stack;
  t.tr_stack <- [];
  t.tr_root

let children sp = sp.sp_children
let find_child sp name = List.find_opt (fun c -> c.sp_name = name) sp.sp_children

let render sp =
  let buf = Buffer.create 256 in
  let rec go indent sp =
    let attrs =
      match List.rev sp.sp_attrs with
      | [] -> ""
      | kvs ->
        " ["
        ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
        ^ "]"
    in
    Buffer.add_string buf
      (Printf.sprintf "%s%s (%.3f ms)%s\n"
         (String.make (indent * 2) ' ')
         sp.sp_name
         (float_of_int sp.sp_elapsed_ns /. 1e6)
         attrs);
    List.iter (go (indent + 1)) sp.sp_children
  in
  go 0 sp;
  Buffer.contents buf

(* --- Chrome trace-event export ----------------------------------------- *)

(* A finished span tree as a Chrome trace-event JSON array: one
   complete ("ph":"X") event per span, timestamps in microseconds
   relative to the root's start, attributes carried as "args". The
   format is what about:tracing and Perfetto load directly. *)
let to_chrome_json root =
  let buf = Buffer.create 512 in
  Buffer.add_char buf '[';
  let first = ref true in
  let rec go sp =
    if not !first then Buffer.add_string buf ",\n";
    first := false;
    let ts =
      if sp.sp_start_ns < 0 || root.sp_start_ns < 0 then 0.
      else float_of_int (sp.sp_start_ns - root.sp_start_ns) /. 1e3
    in
    let dur =
      if sp.sp_elapsed_ns < 0 then 0. else float_of_int sp.sp_elapsed_ns /. 1e3
    in
    let args =
      match List.rev sp.sp_attrs with
      | [] -> ""
      | kvs ->
        Printf.sprintf ",\"args\":{%s}"
          (String.concat ","
             (List.map
                (fun (k, v) ->
                  Printf.sprintf "\"%s\":\"%s\"" (Log_sink.json_escape k)
                    (Log_sink.json_escape v))
                kvs))
    in
    Buffer.add_string buf
      (Printf.sprintf
         "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f%s}"
         (Log_sink.json_escape sp.sp_name) ts dur args);
    List.iter go sp.sp_children
  in
  go root;
  Buffer.add_string buf "]\n";
  Buffer.contents buf

(* Export directory: TIP_TRACE_DIR seeds it; tip_serve --trace-dir
   overrides via [set_trace_dir]. *)
let trace_dir_ref = ref (Sys.getenv_opt "TIP_TRACE_DIR")
let trace_dir () = !trace_dir_ref
let set_trace_dir d = trace_dir_ref := d

let export_seq = Atomic.make 0

(* Writes one trace file and returns its path (None when no directory
   is configured or the write fails — tracing must never take down the
   statement it observed). *)
let export_chrome root =
  match !trace_dir_ref with
  | None -> None
  | Some dir -> (
    let seq = Atomic.fetch_and_add export_seq 1 in
    let path =
      Filename.concat dir
        (Printf.sprintf "trace-%d-%d.json"
           (int_of_float (Unix.gettimeofday () *. 1e3))
           seq)
    in
    try
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc (to_chrome_json root));
      Some path
    with Sys_error _ | Unix.Unix_error _ -> None)
