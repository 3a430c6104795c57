(* The three tipbench workloads: the data each one loads (generated
   in-process from the seed), the statement classes each connection
   draws from, and the correctness checks run against an embedded
   database holding the same data. The server only ever receives a
   generated snapshot and statement text. *)

module Db = Tip_engine.Database
module Value = Tip_storage.Value

type kind = Read | Write

type cls = {
  c_name : string;
  c_kind : kind;
  c_weight : int;  (** share of its connection's statements, in percent *)
  c_sql : Random.State.t -> int -> string;
      (** the statement for a random draw and the connection's
          statement sequence number (unique per connection) *)
  c_marker : string list;
      (** lowercase substrings that identify the class's
          [tip_stat_statements] fingerprint *)
}

(* One connection's stream: a closed loop when [rate] is [None], else an
   open loop issuing [rate] statements per second on a fixed schedule. *)
type stream = { classes : cls list; rate : float option }

type t = {
  name : string;
  durable : bool;
  streams : stream list;
  with_fact : bool;
}

let patients = 2_000
let prescriptions = 20_000
let accounts = 1_000
let fact_rows = 20_000

let patient st = Printf.sprintf "'Patient%04d'" (Random.State.int st patients)

(* A calendar month inside the generated 1995-2000 prescription span. *)
let month st =
  let y = 1995 + Random.State.int st 6 and m = 1 + Random.State.int st 12 in
  let y', m' = if m = 12 then (y + 1, 1) else (y, m + 1) in
  Printf.sprintf "'{[%04d-%02d-01, %04d-%02d-01]}'::Element" y m y' m'

(* A half-year inside the fact table's ten years (2015-2024). *)
let half_year st =
  let y = 2015 + Random.State.int st 10 in
  if Random.State.bool st then Printf.sprintf "'{[%d-01-01, %d-07-01]}'::Element" y y
  else Printf.sprintf "'{[%d-07-01, %d-01-01]}'::Element" y (y + 1)

let cls c_name c_kind c_weight c_marker c_sql =
  { c_name; c_kind; c_weight; c_sql; c_marker }

let lookup w =
  cls "lookup" Read w [ "select drug"; "where patient" ] (fun st _ ->
      "SELECT drug, dosage, valid FROM Prescription WHERE patient = " ^ patient st)

let bal_update id = Printf.sprintf "UPDATE acct SET bal = bal + 1 WHERE id = %d" id

let acct_update w =
  cls "acct_update" Write w [ "update acct" ] (fun st _ ->
      bal_update (Random.State.int st accounts))

(* Tagged inserts: the doctor column carries 'B' and the connection's
   sequence number, so the tagged count after a restart can be checked
   against the acknowledged inserts. *)
let tag_prefix = "B"

let insert w =
  cls "insert" Write w [ "insert into prescription" ] (fun st seq ->
      Printf.sprintf
        "INSERT INTO Prescription VALUES ('%s%07d', %s, '1960-05-05', 'Aspirin', \
         %d, '0 08:00:00', '{[1999-03-01, 1999-03-20]}')"
        tag_prefix seq (patient st) (1 + Random.State.int st 3))

(* Indexed sub-millisecond statements from two closed-loop connections:
   the per-statement fixed cost of wire, session, parse and bookkeeping
   dominates, so wire and parse changes show here and executor changes
   should not. *)
let point_lookup =
  let classes =
    [ lookup 70;
      cls "month_count" Read 20 [ "count"; "where patient"; "overlaps" ]
        (fun st _ ->
          Printf.sprintf
            "SELECT COUNT(*) FROM Prescription WHERE patient = %s AND \
             overlaps(valid, %s)"
            (patient st) (month st));
      acct_update 10 ]
  in
  { name = "point_lookup";
    durable = false;
    with_fact = false;
    streams = List.init 2 (fun _ -> { classes; rate = None }) }

(* Window scans, a temporal self-join, coalescing and partition-pruned
   aggregates from two closed-loop connections: executor, planner and
   partition pruning do nearly all the work, so executor changes show
   here and wire or parse changes should not. The Prescription table has
   no interval index. *)
let temporal_analytics =
  let classes =
    [ cls "window_count" Read 35 [ "count"; "from prescription where overlaps" ]
        (fun st _ ->
          "SELECT COUNT(*) FROM Prescription WHERE overlaps(valid, " ^ month st ^ ")");
      cls "window_agg" Read 25 [ "group by drug" ] (fun st _ ->
          "SELECT drug, COUNT(*), SUM(dosage) FROM Prescription WHERE \
           overlaps(valid, " ^ month st ^ ") GROUP BY drug");
      cls "self_join" Read 15 [ "intersect" ] (fun _ _ ->
          Tip_workload.Layered.native_self_join_sql);
      cls "coalesce" Read 5 [ "group_union" ] (fun _ _ ->
          Tip_workload.Layered.native_coalesce_sql);
      cls "fact_agg" Read 20 [ "from fact" ] (fun st _ ->
          "SELECT dept, COUNT(*) FROM fact WHERE overlaps(valid, " ^ half_year st
          ^ ") GROUP BY dept") ]
  in
  { name = "temporal_analytics";
    durable = false;
    with_fact = true;
    streams = List.init 2 (fun _ -> { classes; rate = None }) }

(* fsync-always writes beside reads, each on an open loop at a fixed
   rate: every write holds the db lock across its WAL append and fsync,
   and auto-checkpoints stall every session, so db-lock waits, group
   commit and checkpoint changes show here. The fixed rates make the
   statement stream, and with it the WAL records and checkpoint count,
   the same on every run of a seed. *)
let durable_mixed =
  let writer =
    [ insert 50;
      acct_update 35;
      cls "rx_update" Write 15 [ "update prescription" ] (fun st _ ->
          Printf.sprintf "UPDATE Prescription SET dosage = %d WHERE patient = %s"
            (1 + Random.State.int st 3) (patient st)) ]
  in
  let reader =
    [ lookup 50;
      cls "acct_lookup" Read 50 [ "select bal" ] (fun st _ ->
          Printf.sprintf "SELECT bal FROM acct WHERE id = %d"
            (Random.State.int st accounts)) ]
  in
  { name = "durable_mixed";
    durable = true;
    with_fact = false;
    streams =
      [ { classes = writer; rate = Some 400. }; { classes = reader; rate = Some 200. } ] }

let all = [ point_lookup; temporal_analytics; durable_mixed ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Every class of the workload once, in stream order. *)
let classes w =
  List.fold_left
    (fun acc c -> if List.exists (fun c' -> c'.c_name = c.c_name) acc then acc else acc @ [ c ])
    [] (List.concat_map (fun s -> s.classes) w.streams)

let pick classes st =
  let r = Random.State.int st 100 in
  let rec go acc = function
    | [ c ] -> c
    | c :: rest -> if r < acc + c.c_weight then c else go (acc + c.c_weight) rest
    | [] -> invalid_arg "Workloads.pick: no classes"
  in
  go 0 classes

(* --- Data ---------------------------------------------------------------- *)

let exec db sql = ignore (Db.exec db sql)

(* Loads the workload's tables into [db]: the paper's Prescription table
   with a B+tree on patient, the acct table, and for the analytics mix a
   fact table range-partitioned by year. *)
let load w db ~seed =
  let data = Tip_workload.Medical.generate ~seed ~patients ~prescriptions () in
  Tip_workload.Medical.load_native db data;
  exec db "CREATE INDEX rx_patient ON Prescription (patient)";
  exec db "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)";
  for chunk = 0 to (accounts / 100) - 1 do
    exec db
      ("INSERT INTO acct VALUES "
      ^ String.concat ", "
          (List.init 100 (fun i -> Printf.sprintf "(%d, 0)" ((chunk * 100) + i))))
  done;
  if w.with_fact then begin
    exec db
      (Tip_workload.Warehouse.deep_schema ~table:"fact" ~partitioned:true
         ~start_year:2015 ~years:10 ());
    List.iter
      (Tip_workload.Warehouse.deep_insert ~table:"fact" db)
      (Tip_workload.Warehouse.deep_history_rows ~seed ~hot_fraction:0.2
         ~rows:fact_rows ())
  end

(* Statements run once the server is up and before any timing: ANALYZE
   is not kept in snapshots, and the partitioned fact table's access
   paths depend on it. *)
let prepare_sql w = if w.with_fact then [ "ANALYZE fact" ] else []

(* Builds the data the server will start from, returning the embedded
   database that holds the same rows. An in-memory workload is saved as
   a snapshot at [snapshot]; a durable one is created and checkpointed in
   [dir]. *)
let build w ~seed ~snapshot ~dir =
  Tip_blade.Values.register_types ();
  if w.durable then begin
    let db, _ = Db.open_durable ~dir () in
    Tip_blade.Blade.install db;
    load w db ~seed;
    ignore (Db.checkpoint db);
    Db.close_durable db;
    db
  end
  else begin
    let db = Tip_blade.Blade.create_database () in
    load w db ~seed;
    Tip_storage.Persist.save (Db.catalog db) snapshot;
    db
  end

let server_args w ~snapshot ~dir =
  if w.durable then [ "--durability"; dir; "--sync"; "always" ]
  else [ "--load"; snapshot ]

(* --- Checks ---------------------------------------------------------------- *)

(* A result as a sorted multiset of rendered rows: row order is not part
   of any answer compared here. *)
let canonical = function
  | Db.Rows { rows; _ } ->
    List.sort compare
      (List.map
         (fun row ->
           String.concat "|" (Array.to_list (Array.map Value.to_display_string row)))
         rows)
  | Db.Affected n -> [ Printf.sprintf "affected %d" n ]
  | Db.Message m -> [ m ]

let scalar_int = function
  | Db.Rows { rows = [ [| v |] ]; _ } -> (
    match v with Value.Null -> Some 0 | v -> Some (Value.to_int v))
  | _ -> None

let sum_bal_sql = "SELECT SUM(bal) FROM acct"

let tagged_sql =
  Printf.sprintf "SELECT COUNT(*) FROM Prescription WHERE doctor LIKE '%s%%'"
    tag_prefix
