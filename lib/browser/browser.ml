(* The TIP Browser, in text form.

   Reproduces the observable behaviour of the paper's Figure 2: the user
   browses a table or query result by any attribute of type Chronon,
   Instant, Period or Element; a time window of adjustable size and
   position lies over the time line; tuples valid in the window are
   highlighted; each tuple's valid periods are drawn as segments of the
   time line in the rightmost column; a slider moves the window; and the
   user may enter a different value for NOW to evaluate the query in a
   temporal context different from the present (what-if analysis). *)

open Tip_core
open Tip_storage
module Db = Tip_engine.Database

exception Browser_error of string

let browser_error fmt = Format.kasprintf (fun s -> raise (Browser_error s)) fmt

type t = {
  conn : Tip_client.Connection.t;
  sql : string;
  time_column : string;
  mutable names : string array;
  mutable rows : Value.t array array;
  mutable time_index : int;
  mutable window : Timeline.window;
  mutable strip_width : int;
}

(* Re-runs the query under the connection's current NOW. *)
let refresh t =
  let rs = Tip_client.Connection.query t.conn t.sql in
  t.names <- Array.of_list (Tip_client.Result_set.column_names rs);
  t.rows <- Array.of_list (Tip_client.Result_set.to_list rs);
  t.time_index <-
    (match
       Array.find_index
         (fun n ->
           String.lowercase_ascii n = String.lowercase_ascii t.time_column)
         t.names
     with
    | Some i -> i
    | None -> browser_error "no column %s in query result" t.time_column)

let now_of t =
  match
    Db.now_override
      ~session:(Tip_client.Connection.session t.conn)
      (Tip_client.Connection.database t.conn)
  with
  | Some c -> c
  | None -> Tx_clock.now ()

(* Ground periods of a row's temporal attribute under the current NOW. *)
let ground_of t row =
  let v = row.(t.time_index) in
  if Value.is_null v then []
  else begin
    match Tip_blade.Values.to_element_value v with
    | e -> Element.ground ~now:(now_of t) e
    | exception Value.Type_error msg -> browser_error "%s" msg
  end

(* Fits the window to the extent of all rows, with ~5%% margin; rows that
   are NOW-relative are grounded first, so the fit follows NOW. *)
let fit_window t =
  let now = now_of t in
  let extend acc row =
    List.fold_left
      (fun acc (s, e) ->
        match acc with
        | None -> Some (s, e)
        | Some (lo, hi) -> Some (Chronon.min lo s, Chronon.max hi e))
      acc (ground_of t row)
  in
  match Array.fold_left extend None t.rows with
  | None ->
    (* No temporal data: a one-year window around NOW. *)
    Timeline.make_window
      ~from_:(Chronon.sub now (Span.of_days 182))
      ~until:(Chronon.add now (Span.of_days 182))
  | Some (lo, hi) ->
    let width = Stdlib.max 86_400 (Span.to_seconds (Chronon.diff hi lo)) in
    let margin = Span.of_seconds (width / 20) in
    Timeline.make_window ~from_:(Chronon.sub lo margin)
      ~until:(Chronon.add hi margin)

let open_query ?(strip_width = 48) conn ~sql ~time_column =
  let t =
    { conn; sql; time_column;
      names = [||]; rows = [||]; time_index = 0;
      window = Timeline.make_window ~from_:Chronon.epoch
          ~until:(Chronon.add Chronon.epoch (Span.of_days 1));
      strip_width }
  in
  refresh t;
  t.window <- fit_window t;
  t

(* Browsing a whole table, the default mode of the demo. *)
let open_table ?strip_width conn ~table ~time_column =
  open_query ?strip_width conn ~sql:(Printf.sprintf "SELECT * FROM %s" table)
    ~time_column

(* --- Window and NOW controls ------------------------------------------------- *)

let window t = t.window
let set_window t window = t.window <- window

(* The slider: positive steps move right; one step is an eighth of the
   window. *)
let slide t steps =
  let step = Span.to_seconds (Timeline.window_width t.window) / 8 in
  t.window <- Timeline.shift t.window (Span.of_seconds (step * steps))

let zoom t factor = t.window <- Timeline.zoom t.window factor

(* What-if: re-evaluate everything as if NOW were [chronon]. *)
let set_now t chronon =
  Tip_client.Connection.set_now t.conn chronon;
  refresh t

let reset_now t =
  Tip_client.Connection.clear_now t.conn;
  refresh t

(* --- Rendering ------------------------------------------------------------------ *)

let is_valid_in_window t row = Timeline.visible ~window:t.window (ground_of t row)

let valid_count t =
  Array.fold_left (fun n row -> if is_valid_in_window t row then n + 1 else n) 0 t.rows

let render t =
  let buf = Buffer.create 1024 in
  let now = now_of t in
  Buffer.add_string buf
    (Printf.sprintf "TIP Browser — %s\nNOW = %s%s | window %s .. %s | %d/%d tuples valid in window\n"
       t.sql (Chronon.to_string now)
       (if Tip_client.Connection.session_now t.conn <> None then " (what-if)"
        else "")
       (Chronon.to_string t.window.Timeline.from_)
       (Chronon.to_string t.window.Timeline.until)
       (valid_count t) (Array.length t.rows));
  (* Column widths. *)
  let ncols = Array.length t.names in
  let cell row i = Value.to_display_string row.(i) in
  let widths =
    Array.init ncols (fun i ->
        Array.fold_left
          (fun w row -> Stdlib.max w (String.length (cell row i)))
          (String.length t.names.(i))
          t.rows)
  in
  let pad s w = s ^ String.make (Stdlib.max 0 (w - String.length s)) ' ' in
  (* Header row; two leading spaces align with the validity marker. *)
  Buffer.add_string buf "  ";
  Array.iteri
    (fun i name ->
      Buffer.add_string buf (pad name widths.(i));
      Buffer.add_string buf " | ")
    t.names;
  Buffer.add_string buf "timeline\n";
  (* Data rows. *)
  Array.iter
    (fun row ->
      let valid = is_valid_in_window t row in
      Buffer.add_string buf (if valid then "* " else "  ");
      Array.iteri
        (fun i _ ->
          Buffer.add_string buf (pad (cell row i) widths.(i));
          Buffer.add_string buf " | ")
        t.names;
      Buffer.add_string buf
        (Timeline.strip ~mark:now ~width:t.strip_width ~window:t.window
           (ground_of t row));
      Buffer.add_char buf '\n')
    t.rows;
  (* Density footer and axis. *)
  let lead =
    2 + Array.fold_left (fun acc w -> acc + w + 3) 0 widths
  in
  let grounds = Array.to_list (Array.map (ground_of t) t.rows) in
  Buffer.add_string buf (String.make lead ' ');
  Buffer.add_string buf
    (Timeline.density ~width:t.strip_width ~window:t.window grounds);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make lead ' ');
  Buffer.add_string buf (Timeline.axis ~width:t.strip_width ~window:t.window);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* A slider sweep: renders [frames] views while moving the window from
   its current position rightwards, one step per frame. *)
let sweep t ~frames =
  List.init frames (fun i ->
      if i > 0 then slide t 1;
      render t)
