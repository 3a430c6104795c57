(* Bounded statement-fingerprint store behind tip_stat_statements.

   Entries are keyed by the statement's normalized shape (the caller
   fingerprints; this module has no SQL knowledge) and aggregate call
   counts, latency, row traffic and failure outcomes. The store is a
   mutex-guarded hashtable: statements execute one at a time per
   database, so the lock is uncontended in practice, and each record is
   one probe plus a handful of integer bumps.

   Capacity is bounded: when a new shape arrives at capacity, the
   least-recently-updated entry is evicted (an O(capacity) scan over a
   counter stamp — capacity is small and eviction rare, so this beats
   maintaining an intrusive list). *)

type entry = {
  e_query : string;
  mutable e_calls : int;
  mutable e_total_ns : int;
  mutable e_min_ns : int;
  mutable e_max_ns : int;
  mutable e_rows_returned : int;
  mutable e_rows_scanned : int;
  mutable e_errors : int;
  mutable e_cancelled : int;
  e_buckets : int array; (* non-cumulative, aligned with Metrics.bounds *)
  mutable e_stamp : int; (* LRU clock value of the last update *)
}

type outcome = Finished | Errored | Cancelled

(* Read-only snapshot row handed to the virtual table. *)
type stat = {
  query : string;
  calls : int;
  total_ns : int;
  min_ns : int;
  max_ns : int;
  rows_returned : int;
  rows_scanned : int;
  errors : int;
  cancelled : int;
  buckets : int array;
}

let lock = Mutex.create ()
let table : (string, entry) Hashtbl.t = Hashtbl.create 64
let clock = ref 0

let default_capacity =
  match Sys.getenv_opt "TIP_STAT_STATEMENTS_CAP" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 512)
  | None -> 512

let capacity_ref = ref default_capacity

let with_lock f = Mutex.protect lock f

let capacity () = !capacity_ref

let evict_lru () =
  (* called under the lock *)
  let victim = ref None in
  Hashtbl.iter
    (fun key e ->
      match !victim with
      | Some (_, stamp) when stamp <= e.e_stamp -> ()
      | _ -> victim := Some (key, e.e_stamp))
    table;
  match !victim with
  | Some (key, _) -> Hashtbl.remove table key
  | None -> ()

let set_capacity n =
  if n <= 0 then invalid_arg "Introspect.set_capacity: capacity must be positive";
  with_lock (fun () ->
      capacity_ref := n;
      while Hashtbl.length table > n do
        evict_lru ()
      done)

let record ~query ~elapsed_ns ~rows_returned ~rows_scanned outcome =
  if Switch.on () then
    with_lock (fun () ->
        incr clock;
        let e =
          match Hashtbl.find_opt table query with
          | Some e -> e
          | None ->
            if Hashtbl.length table >= !capacity_ref then evict_lru ();
            let e =
              { e_query = query;
                e_calls = 0;
                e_total_ns = 0;
                e_min_ns = max_int;
                e_max_ns = 0;
                e_rows_returned = 0;
                e_rows_scanned = 0;
                e_errors = 0;
                e_cancelled = 0;
                e_buckets = Array.make (Array.length Metrics.bounds + 1) 0;
                e_stamp = 0 }
            in
            Hashtbl.replace table query e;
            e
        in
        e.e_calls <- e.e_calls + 1;
        e.e_total_ns <- e.e_total_ns + elapsed_ns;
        if elapsed_ns < e.e_min_ns then e.e_min_ns <- elapsed_ns;
        if elapsed_ns > e.e_max_ns then e.e_max_ns <- elapsed_ns;
        e.e_rows_returned <- e.e_rows_returned + rows_returned;
        e.e_rows_scanned <- e.e_rows_scanned + rows_scanned;
        (match outcome with
        | Finished -> ()
        | Errored -> e.e_errors <- e.e_errors + 1
        | Cancelled -> e.e_cancelled <- e.e_cancelled + 1);
        let b = Metrics.bucket_of elapsed_ns in
        e.e_buckets.(b) <- e.e_buckets.(b) + 1;
        e.e_stamp <- !clock)

let snapshot () =
  with_lock (fun () ->
      Hashtbl.fold
        (fun _ e acc ->
          { query = e.e_query;
            calls = e.e_calls;
            total_ns = e.e_total_ns;
            min_ns = (if e.e_calls = 0 then 0 else e.e_min_ns);
            max_ns = e.e_max_ns;
            rows_returned = e.e_rows_returned;
            rows_scanned = e.e_rows_scanned;
            errors = e.e_errors;
            cancelled = e.e_cancelled;
            buckets = Array.copy e.e_buckets }
          :: acc)
        table [])
  |> List.sort (fun a b -> compare (b.total_ns, b.query) (a.total_ns, a.query))

let size () = with_lock (fun () -> Hashtbl.length table)

let reset () = with_lock (fun () -> Hashtbl.reset table)
