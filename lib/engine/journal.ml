open Tip_storage

type undo =
  | U_insert of Table.t * int
  | U_delete of Table.t * Value.t array
  | U_update of Table.t * int * Value.t array

(* A row change carries its undo and, when a WAL is attached, its redo
   record. DDL carries only its redo record: DDL auto-commits, so
   ROLLBACK keeps it. *)
type entry =
  | Change of undo * Wal.record option
  | Ddl of Wal.record
  | Savepoint of string

(* Outside a transaction the journal holds only the running statement's
   entries; inside one it holds the whole transaction. *)
type session = {
  mutable journal : entry list;
  now_default : Tip_core.Chronon.t option;
  mutable now_override : Tip_core.Chronon.t option;
  timeout_default : int option;
  mutable timeout_ms : int option;
}

let session ~now ~timeout_ms =
  { journal = [];
    now_default = now;
    now_override = now;
    timeout_default = timeout_ms;
    timeout_ms }

let now s =
  match s.now_override with
  | Some c -> c
  | None -> Tip_core.Tx_clock.now ()

let row_cells row = Array.map Persist.serialize_value row

(* The redo record is built from the undo and the row as it now stands. *)
let log_change ~redo s undo =
  let redo =
    if not redo then None
    else
      Some
        (match undo with
        | U_insert (table, rid) ->
          Wal.Insert
            { table = Table.name table;
              cells = row_cells (Table.get_exn table rid) }
        | U_delete (table, row) ->
          Wal.Delete { table = Table.name table; cells = row_cells row }
        | U_update (table, rid, old_row) ->
          Wal.Update
            { table = Table.name table;
              old_cells = row_cells old_row;
              new_cells = row_cells (Table.get_exn table rid) })
  in
  s.journal <- Change (undo, redo) :: s.journal

let log_ddl ~redo s r = if redo then s.journal <- Ddl r :: s.journal

let undo_change = function
  | U_insert (table, rid) -> ignore (Table.delete table rid)
  | U_delete (table, row) -> ignore (Table.insert table row)
  | U_update (table, rid, old_row) -> ignore (Table.update table rid old_row)

(* Undoes the journal's row changes, newest first, back to the savepoint
   [upto] (which stays) or all of them. Savepoints passed on the way go;
   DDL entries stay, as DDL is not undoable. *)
let unwind ?upto journal =
  let rec go kept = function
    | Savepoint n :: _ as rest when Some n = upto -> List.rev_append kept rest
    | [] -> List.rev kept
    | Change (u, _) :: rest ->
      undo_change u;
      go kept rest
    | Savepoint _ :: rest -> go kept rest
    | (Ddl _ as e) :: rest -> go (e :: kept) rest
  in
  go [] journal

let rec revert_to mark = function
  | l when l == mark -> l
  | Change (u, _) :: rest ->
    undo_change u;
    revert_to mark rest
  | (Ddl _ | Savepoint _) :: rest -> revert_to mark rest
  | [] -> []

let rollback s = s.journal <- unwind s.journal

let savepoint s name = s.journal <- Savepoint name :: s.journal

(* The savepoint stays, so it can be rolled back to again. *)
let rollback_to s name =
  List.exists (function Savepoint n -> n = name | _ -> false) s.journal
  && begin
       s.journal <- unwind ~upto:name s.journal;
       true
     end

let release s name =
  let rec go newer = function
    | [] -> false
    | Savepoint n :: rest when n = name ->
      s.journal <- List.rev_append newer rest;
      true
    | e :: rest -> go (e :: newer) rest
  in
  go [] s.journal

(* Stamping the marker with the session's NOW keeps replay under SET NOW
   deterministic; it is the instant point-in-time recovery stops on. *)
let end_of_statement durable s =
  Option.iter
    (fun d ->
      let records =
        List.fold_left
          (fun acc e ->
            match e with
            | Change (_, Some r) | Ddl r -> r :: acc
            | Change (_, None) | Savepoint _ -> acc)
          [] s.journal
      in
      if records <> [] then
        Durable.commit d records
          ~at:(Tip_core.Chronon.to_unix_seconds (now s)))
    durable;
  s.journal <- []
