(* Deterministic fault injection for the durability path.

   Every I/O the durability subsystem performs (WAL appends, snapshot
   writes, fsyncs, renames) goes through this module, so tests can kill
   the engine at any chosen I/O, shorten a write to simulate a torn
   page, or flip a bit to simulate media corruption — all without
   forking a process. A [Crash] escaping to the top level stands for
   the process dying: the harness drops the engine and re-opens from
   disk.

   Sites are armed programmatically ([arm]) or through the
   TIP_FAILPOINTS environment variable:

     TIP_FAILPOINTS="wal.write:3:crash,snapshot.rename:1:crash"

   Each clause is site:hit:action where [hit] counts invocations of the
   site (1-based) and action is one of crash, shortwrite=N, bitflip=N,
   fail=MSG. *)

exception Crash of string

type action =
  | Crash_now
  | Short_write of int (* write only the first N bytes, then crash *)
  | Bit_flip of int (* flip bit N (mod payload bits), carry on *)
  | Fail of string (* raise a plain Failure — an "unexpected" error *)
  | Drop (* stream sites: swallow the payload and sever the link *)
  | Delay of float (* stream sites: sleep before delivering *)

type arm_point = { site : string; hit : int; action : action }

let armed : arm_point list ref = ref []
let counters : (string, int) Hashtbl.t = Hashtbl.create 8
let env_loaded = ref false

let parse_action s =
  match String.index_opt s '=' with
  | None -> (
    match s with
    | "crash" -> Crash_now
    | "drop" -> Drop
    | _ -> invalid_arg ("TIP_FAILPOINTS: unknown action " ^ s))
  | Some i -> (
    let name = String.sub s 0 i in
    let arg = String.sub s (i + 1) (String.length s - i - 1) in
    match name with
    | "shortwrite" -> Short_write (int_of_string arg)
    | "bitflip" -> Bit_flip (int_of_string arg)
    | "fail" -> Fail arg
    | "delay" -> Delay (float_of_string arg)
    | _ -> invalid_arg ("TIP_FAILPOINTS: unknown action " ^ name))

let parse_env spec =
  String.split_on_char ',' spec
  |> List.filter (fun s -> String.trim s <> "")
  |> List.map (fun clause ->
         match String.split_on_char ':' (String.trim clause) with
         | [ site; hit; action ] ->
           { site; hit = int_of_string hit; action = parse_action action }
         | _ -> invalid_arg ("TIP_FAILPOINTS: bad clause " ^ clause))

let load_env () =
  if not !env_loaded then begin
    env_loaded := true;
    match Sys.getenv_opt "TIP_FAILPOINTS" with
    | None | Some "" -> ()
    | Some spec -> armed := parse_env spec @ !armed
  end

let arm ~site ~hit action =
  load_env ();
  armed := { site; hit; action } :: !armed

let reset () =
  env_loaded := true;
  (* programmatic resets discard the env spec too *)
  armed := [];
  Hashtbl.reset counters

let active () = !armed <> []

(* Sites are hit from every session's domain: the counters are bumped
   under a lock, taken only while something is armed. *)
let counters_lock = Mutex.create ()

(* The action armed for this invocation of [site], if any; bumps the
   site's invocation counter either way. *)
let check site =
  load_env ();
  if !armed = [] then None
  else begin
    Mutex.lock counters_lock;
    let n = (try Hashtbl.find counters site with Not_found -> 0) + 1 in
    Hashtbl.replace counters site n;
    Mutex.unlock counters_lock;
    match List.find_opt (fun a -> a.site = site && a.hit = n) !armed with
    | Some a -> Some a.action
    | None -> None
  end

let crash site = raise (Crash (Printf.sprintf "injected crash at %s" site))

(* A control-flow-only site (no I/O): supports Crash_now, Fail and
   Delay; byte-level actions are meaningless here and ignored. *)
let hit ~site () =
  match check site with
  | None | Some (Short_write _) | Some (Bit_flip _) | Some Drop -> ()
  | Some Crash_now -> crash site
  | Some (Fail msg) -> failwith msg
  | Some (Delay s) -> Unix.sleepf s

let write_all fd bytes len =
  let rec go off =
    if off < len then begin
      let n = Unix.write fd bytes off (len - off) in
      go (off + n)
    end
  in
  go 0

let flip_bit s bit =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  if len > 0 then begin
    let bit = abs bit mod (len * 8) in
    let byte = bit / 8 and inside = bit mod 8 in
    Bytes.set b byte
      (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl inside)))
  end;
  Bytes.to_string b

(* Writes the whole buffer through the failpoint at [site]. *)
let write ~site fd bytes =
  let len = Bytes.length bytes in
  match check site with
  | None | Some Drop -> write_all fd bytes len
  | Some (Delay s) ->
    Unix.sleepf s;
    write_all fd bytes len
  | Some Crash_now -> crash site
  | Some (Fail msg) -> failwith msg
  | Some (Short_write n) ->
    write_all fd bytes (min n len);
    crash site
  | Some (Bit_flip bit) ->
    let bytes = Bytes.of_string (flip_bit (Bytes.to_string bytes) bit) in
    write_all fd bytes len

let fsync ~site fd =
  match check site with
  | None | Some (Short_write _) | Some (Bit_flip _) | Some Drop -> Unix.fsync fd
  | Some (Delay s) ->
    Unix.sleepf s;
    Unix.fsync fd
  | Some Crash_now -> crash site
  | Some (Fail msg) -> failwith msg

let rename ~site src dst =
  match check site with
  | None | Some (Short_write _) | Some (Bit_flip _) | Some Drop ->
    Sys.rename src dst
  | Some (Delay s) ->
    Unix.sleepf s;
    Sys.rename src dst
  | Some Crash_now -> crash site
  | Some (Fail msg) -> failwith msg

(* The whole file as a string. Reads are never armed: a crash or a
   torn byte is injected where the bytes are written. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* tmp + fsync + rename, so a crash at any point leaves either the old
   file or the new one; the steps are the sites [<sites>.write],
   [<sites>.fsync] and [<sites>.rename]. *)
let write_file_atomic ~sites path content =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write ~site:(sites ^ ".write") fd (Bytes.of_string content);
      fsync ~site:(sites ^ ".fsync") fd);
  rename ~site:(sites ^ ".rename") tmp path

(* A replication-stream site: decides what (if anything) of [payload]
   actually goes on the wire and whether the link dies afterwards.
   Returns [payload_to_send option * kill_connection_after].  [Drop]
   swallows the payload AND severs the link: on a reliable transport a
   silently lost frame could never be repaired, so the interesting
   failure is losing the tail and re-syncing from the confirmed
   offset.  [Short_write n] ships a prefix then severs the link (a torn
   frame in flight); [Bit_flip] corrupts silently and leaves the link
   up, exercising the receiver's CRC rejection. *)
let stream ~site payload =
  match check site with
  | None -> (Some payload, false)
  | Some Crash_now -> crash site
  | Some (Fail msg) -> failwith msg
  | Some Drop -> (None, true)
  | Some (Delay s) ->
    Unix.sleepf s;
    (Some payload, false)
  | Some (Short_write n) ->
    (Some (String.sub payload 0 (min n (String.length payload))), true)
  | Some (Bit_flip bit) -> (Some (flip_bit payload bit), false)
