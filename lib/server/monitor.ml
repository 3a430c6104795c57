(* The embedded HTTP monitoring endpoint (DESIGN.md §16).

   Deliberately not a web framework: parse the request line, drain the
   headers, dispatch on the path, answer, close. Probes (kubelet,
   Prometheus, curl in the failover runbook) are all one-shot GETs, so
   keep-alive buys nothing and connection-per-request keeps every
   handler allocation-local. None of the handlers touches the database
   lock — /metrics and /ash.json read lock-free registries — so the
   endpoint stays responsive while a runaway statement holds the db
   lock, which is exactly when an operator needs it. *)

module Metrics = Tip_obs.Metrics
module Ash = Tip_obs.Ash

let log_src = Logs.Src.create "tip.monitor" ~doc:"TIP monitoring endpoint"

module Log = (val Logs.src_log log_src : Logs.LOG)

type t = {
  listener : Unix.file_descr;
  mutable running : bool;
  mutable thread : Thread.t option;
}

let ash_json () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i (sa : Ash.sample) ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf
        (Printf.sprintf
           "{\"seq\":%d,\"at\":%.3f,\"interval_ms\":%d,\"session\":%d,\
            \"kind\":\"%s\",\"query\":%s,\"state\":\"%s\"}"
           sa.Ash.sa_seq sa.sa_at sa.sa_interval_ms sa.sa_session
           (Tip_obs.Log_sink.json_escape sa.sa_kind)
           (match sa.sa_query with
           | Some q -> Printf.sprintf "\"%s\"" (Tip_obs.Log_sink.json_escape q)
           | None -> "null")
           (Tip_obs.Log_sink.json_escape sa.sa_state)))
    (Ash.samples ());
  Buffer.add_string buf "]\n";
  Buffer.contents buf

let respond oc ~status ~content_type body =
  let reason =
    match status with
    | 200 -> "OK"
    | 404 -> "Not Found"
    | 503 -> "Service Unavailable"
    | _ -> "Error"
  in
  Printf.fprintf oc
    "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status reason content_type (String.length body) body;
  flush oc

let handle_connection ready fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        (* probes must not be able to pin the handler thread *)
        (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0
         with Unix.Unix_error _ | Invalid_argument _ -> ());
        let request = input_line ic in
        (* drain headers up to the blank line; their content is unused *)
        (try
           while
             match input_line ic with "" | "\r" -> false | _ -> true
           do
             ()
           done
         with End_of_file -> ());
        match String.split_on_char ' ' (String.trim request) with
        | [ meth; path; _version ] when meth = "GET" || meth = "HEAD" -> (
          match path with
          | "/metrics" ->
            respond oc ~status:200
              ~content_type:"text/plain; version=0.0.4; charset=utf-8"
              (Metrics.dump_text ())
          | "/healthz" ->
            respond oc ~status:200 ~content_type:"text/plain" "ok\n"
          | "/readyz" ->
            let ok, detail = ready () in
            respond oc
              ~status:(if ok then 200 else 503)
              ~content_type:"text/plain" (detail ^ "\n")
          | "/ash.json" ->
            respond oc ~status:200 ~content_type:"application/json"
              (ash_json ())
          | _ ->
            respond oc ~status:404 ~content_type:"text/plain" "not found\n")
        | _ -> respond oc ~status:404 ~content_type:"text/plain" "bad request\n"
      with
      | End_of_file | Sys_error _ | Sys_blocked_io -> ()
      | Unix.Unix_error _ -> ())

let port t =
  match Unix.getsockname t.listener with
  | Unix.ADDR_INET (_, port) -> port
  | Unix.ADDR_UNIX _ -> invalid_arg "Monitor.port: unix socket"

let start ~port:requested ~ready () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_any, requested));
  Unix.listen listener 16;
  let t = { listener; running = true; thread = None } in
  let rec accept_loop () =
    if t.running then begin
      match Unix.accept t.listener with
      | fd, _ ->
        ignore
          (Tip_obs.Events.spawn ~name:"monitor connection" (fun () ->
               handle_connection ready fd));
        accept_loop ()
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) ->
        () (* listener closed by [stop] *)
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
        accept_loop ()
    end
  in
  t.thread <- Some (Tip_obs.Events.spawn ~name:"monitor accept" accept_loop);
  Log.info (fun m -> m "monitoring endpoint on port %d" (port t));
  t

let stop t =
  if t.running then begin
    t.running <- false;
    (* close alone does not wake a thread parked in accept(2);
       shutdown does, failing the accept with EINVAL *)
    (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try Unix.close t.listener with Unix.Unix_error _ -> ());
    match t.thread with
    | Some th -> ( try Thread.join th with _ -> ())
    | None -> ()
  end
