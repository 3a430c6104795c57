(* Heap storage for one table: rows addressed by stable row ids.

   Deleted slots become tombstones and are recycled through a free list,
   so row ids stay valid for the indexes that reference them. *)

type row = Value.t array

type t = {
  slots : row option Vec.t;
  mutable free : int list; (* tombstone slots available for reuse *)
  mutable live : int;
}

let create () = { slots = Vec.create ~dummy:None; free = []; live = 0 }

let live_count t = t.live
let slot_count t = Vec.length t.slots

let insert t row =
  t.live <- t.live + 1;
  match t.free with
  | rid :: rest ->
    t.free <- rest;
    Vec.set t.slots rid (Some row);
    rid
  | [] -> Vec.push t.slots (Some row)

let get t rid =
  if rid < 0 || rid >= Vec.length t.slots then None else Vec.get t.slots rid

let get_exn t rid =
  match get t rid with
  | Some row -> row
  | None -> invalid_arg (Printf.sprintf "Heap.get_exn: no row %d" rid)

let delete t rid =
  match get t rid with
  | None -> false
  | Some _ ->
    Vec.set t.slots rid None;
    t.free <- rid :: t.free;
    t.live <- t.live - 1;
    true

let update t rid row =
  match get t rid with
  | None -> false
  | Some _ ->
    Vec.set t.slots rid (Some row);
    true

(* Iterates live rows in row-id order. *)
let iteri f t =
  Vec.iteri (fun rid slot -> match slot with Some row -> f rid row | None -> ()) t.slots

let fold f init t =
  Vec.fold
    (fun acc slot -> match slot with Some row -> f acc row | None -> acc)
    init t.slots

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
