(* Heap storage for one table: rows addressed by stable row ids.

   The slots are one growable array, [used] of them ever filled.
   Deleted slots become tombstones and are recycled through a free list,
   so row ids stay valid for the indexes that reference them. *)

type row = Value.t array

type t = {
  mutable slots : row option array; (* capacity; past [used] all None *)
  mutable used : int;
  mutable free : int list; (* tombstone slots available for reuse *)
  mutable live : int;
}

let create () = { slots = Array.make 8 None; used = 0; free = []; live = 0 }

let live_count t = t.live
let slot_count t = t.used

let insert t row =
  t.live <- t.live + 1;
  match t.free with
  | rid :: rest ->
    t.free <- rest;
    t.slots.(rid) <- Some row;
    rid
  | [] ->
    let rid = t.used in
    if rid = Array.length t.slots then begin
      let slots = Array.make (2 * rid) None in
      Array.blit t.slots 0 slots 0 rid;
      t.slots <- slots
    end;
    t.slots.(rid) <- Some row;
    t.used <- rid + 1;
    rid

let get t rid = if rid < 0 || rid >= t.used then None else t.slots.(rid)

let get_exn t rid =
  match get t rid with
  | Some row -> row
  | None -> invalid_arg (Printf.sprintf "Heap.get_exn: no row %d" rid)

let delete t rid =
  match get t rid with
  | None -> false
  | Some _ ->
    t.slots.(rid) <- None;
    t.free <- rid :: t.free;
    t.live <- t.live - 1;
    true

let update t rid row =
  match get t rid with
  | None -> false
  | Some _ ->
    t.slots.(rid) <- Some row;
    true

(* Iterates live rows in row-id order. *)
let iteri f t =
  for rid = 0 to t.used - 1 do
    match t.slots.(rid) with Some row -> f rid row | None -> ()
  done

let fold f init t =
  let acc = ref init in
  iteri (fun _ row -> acc := f !acc row) t;
  !acc

(* One loop over the slot array: the scan's chunk fill. *)
let fill t ~lo ~hi dst =
  let n = ref 0 in
  for rid = lo to Int.min hi t.used - 1 do
    match t.slots.(rid) with
    | Some row ->
      dst.(!n) <- row;
      incr n
    | None -> ()
  done;
  !n

let rids t =
  let acc = ref [] in
  iteri (fun rid _ -> acc := rid :: !acc) t;
  List.rev !acc

(* Live row ids as a fresh array, ascending: the batch executor's scan
   leaves read it one chunk of rids at a time. *)
let rids_array t =
  let out = Array.make t.live 0 in
  let i = ref 0 in
  iteri
    (fun rid _ ->
      out.(!i) <- rid;
      incr i)
    t;
  out
