(* Virtual-table registry: system telemetry served as ordinary
   relations (tip_stat_statements, tip_stat_activity, ...).

   A provider names a relation, declares its columns, and materializes
   a snapshot of rows on demand. The planner consults this registry
   only when catalog lookup fails, so a real table always shadows a
   virtual one; the rows feed a Plan.Virtual_scan leaf that behaves
   like any other row source above it (filters, joins, ORDER BY,
   EXPLAIN all compose).

   The registry is global (providers describe process-wide state);
   [produce] receives the querying database's catalog so per-database
   relations like tip_stat_tables report the right tables. *)

open Tip_storage

type provider = {
  vt_name : string; (* lowercase relation name *)
  vt_cols : string array; (* lowercase column names *)
  vt_help : string;
  vt_rows : Catalog.t -> Value.t array list;
}

let lock = Mutex.create ()
let providers : (string, provider) Hashtbl.t = Hashtbl.create 8

let with_lock f = Mutex.protect lock f

let register p =
  with_lock (fun () ->
      Hashtbl.replace providers (String.lowercase_ascii p.vt_name) p)

let find name =
  with_lock (fun () ->
      Hashtbl.find_opt providers (String.lowercase_ascii name))

let names () =
  with_lock (fun () -> Hashtbl.fold (fun k _ acc -> k :: acc) providers [])
  |> List.sort String.compare
