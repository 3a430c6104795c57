(* The active session history (DESIGN.md §16): a ring of samples of
   the live sessions in Span's one table, taken on a fixed tick. *)

type sample = {
  sa_seq : int;
  sa_at : float;
  sa_interval_ms : int;
  sa_session : int;
  sa_kind : string;
  sa_query : string option;
  sa_state : string;
}

let env_int name default floor =
  match Sys.getenv_opt name with
  | Some v -> (match int_of_string_opt v with Some n -> max floor n | None -> default)
  | None -> default

let interval = ref (env_int "TIP_ASH_INTERVAL_MS" 100 5)
let interval_ms () = !interval

let ring_lock = Mutex.create ()
let ring : sample option array ref = ref (Array.make (env_int "TIP_ASH_RING" 4096 1) None)
let ring_next = ref 0 (* next write slot *)
let ring_seq = ref 0

let ring_locked f = Mutex.protect ring_lock f

let ring_capacity () = ring_locked (fun () -> Array.length !ring)

let set_ring_capacity n =
  ring_locked (fun () ->
      ring := Array.make (max 1 n) None;
      ring_next := 0)

let clear_samples () =
  ring_locked (fun () ->
      Array.fill !ring 0 (Array.length !ring) None;
      ring_next := 0)

let push_sample sa =
  let r = !ring in
  r.(!ring_next) <- Some sa;
  ring_next := (!ring_next + 1) mod Array.length r

let samples () =
  ring_locked (fun () ->
      let r = !ring in
      let n = Array.length r in
      let out = ref [] in
      (* walk backwards from the newest slot so the result is oldest
         first once the accumulator reverses it *)
      for k = 0 to n - 1 do
        match r.((!ring_next - 1 - k + (2 * n)) mod n) with
        | Some sa -> out := sa :: !out
        | None -> ()
      done;
      !out)

let sample_now () =
  let watched =
    List.filter_map
      (fun (s : Span.session) ->
        Option.map (fun state -> (s, state)) (Span.ash_state s))
      (Span.sessions ())
  in
  if watched <> [] then begin
    let at = Unix.gettimeofday () in
    let iv = !interval in
    ring_locked (fun () ->
        List.iter
          (fun ((s : Span.session), state) ->
            let seq = !ring_seq in
            incr ring_seq;
            push_sample
              { sa_seq = seq; sa_at = at; sa_interval_ms = iv;
                sa_session = s.id; sa_kind = s.kind;
                sa_query = s.activity.fingerprint; sa_state = state })
          watched)
  end

(* --- the sampler thread --------------------------------------------- *)

let sampler_lock = Mutex.create ()
let sampler : Thread.t option ref = ref None
let sampler_stop = Atomic.make false

let sampler_running () = Mutex.protect sampler_lock (fun () -> !sampler <> None)

let start_sampler () =
  Mutex.protect sampler_lock (fun () ->
      if !sampler = None then begin
        Atomic.set sampler_stop false;
        sampler :=
          Some
            (Events.spawn ~name:"ash sampler" (fun () ->
                 while not (Atomic.get sampler_stop) do
                   sample_now ();
                   Thread.delay (float_of_int !interval /. 1000.)
                 done))
      end)

let stop_sampler () =
  Mutex.protect sampler_lock (fun () ->
      let t = !sampler in
      sampler := None;
      Atomic.set sampler_stop true;
      t)
  |> Option.iter Thread.join
