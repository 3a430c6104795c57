(* tip_serve as a child process, plus the few facts tipbench reads from
   the operating system: the child's CPU time and peak RSS from /proc,
   the generator's own CPU time, and the machine metadata a run file
   records. Every child started here is killed and reaped before
   tipbench exits, whatever the exit path. *)

type server = { pid : int; port : int; log : string }

let live : int list ref = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  live := List.filter (( <> ) pid) !live

let kill_pid signal pid =
  (try Unix.kill pid signal with Unix.Unix_error _ -> ());
  reap pid

let kill_all () = List.iter (kill_pid Sys.sigkill) !live

let () = at_exit kill_all

(* Reads to end of file: /proc files report a length of zero. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The index just past the first occurrence of [marker] in [s]. *)
let find_after s marker =
  let n = String.length s and m = String.length marker in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = marker then Some (i + m)
    else go (i + 1)
  in
  go 0

let contains s sub = find_after s sub <> None

(* The server announces its ephemeral port on stderr; its log goes to a
   file, polled until the announcement appears or the child dies. *)
let wait_for_port ~pid ~log ~timeout =
  let marker = "listening on port " in
  let give_up = Unix.gettimeofday () +. timeout in
  let rec poll () =
    let text = try read_file log with Sys_error _ -> "" in
    match find_after text marker with
    | Some i ->
      let j = ref i in
      while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do
        incr j
      done;
      int_of_string (String.sub text i (!j - i))
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (( <> ) pid) !live;
        failwith ("tip_serve exited during start-up:\n" ^ text));
      if Unix.gettimeofday () > give_up then
        failwith ("tip_serve did not announce its port:\n" ^ text);
      Unix.sleepf 0.001;
      poll ()
  in
  poll ()

let spawn ~exe ~log args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (exe :: "--port" :: "0" :: args) in
  let pid = Unix.create_process exe argv stdin_r out out in
  live := pid :: !live;
  Unix.close out;
  Unix.close stdin_r;
  Unix.close stdin_w;
  let port = wait_for_port ~pid ~log ~timeout:120. in
  { pid; port; log }

(* utime + stime of a process in microseconds (USER_HZ is 100 on
   Linux). The command name in field 2 may hold spaces, so the fields
   are counted after its closing parenthesis. *)
let cpu_us pid =
  let text = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest =
    String.sub text (String.rindex text ')' + 2)
      (String.length text - String.rindex text ')' - 2)
  in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* fields.(0) is field 3 (state); utime and stime are fields 14, 15 *)
  10_000. *. (float_of_string fields.(11) +. float_of_string fields.(12))

let status_kb pid key =
  let text = read_file (Printf.sprintf "/proc/%d/status" pid) in
  match find_after text (key ^ ":") with
  | None -> nan
  | Some i ->
    let rest = String.sub text i (String.length text - i) in
    let line = List.hd (String.split_on_char '\n' rest) in
    Scanf.sscanf line " %f kB" Fun.id

(* The generator's own user + system CPU seconds. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let command_line cmd =
  match Unix.open_process_in cmd with
  | exception Unix.Unix_error _ -> "unknown"
  | ic ->
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then "unknown" else line

let kernel () =
  try String.trim (read_file "/proc/sys/kernel/osrelease")
  with Sys_error _ -> "unknown"

let filesystem dir = command_line ("stat -f -c %T " ^ Filename.quote dir ^ " 2>/dev/null")

(* Only a checkout that is itself a git work tree reports a commit;
   git would otherwise walk up and report an enclosing repository. *)
let git_head () =
  if Sys.file_exists ".git" then command_line "git rev-parse HEAD 2>/dev/null"
  else "unknown"
