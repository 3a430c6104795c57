(* EXPLAIN text, pinned byte for byte. A fixed script covers every scan
   the access-path chooser picks, the join shapes, subqueries, grouping
   and ordering by ordinal and alias, set operations, time travel,
   virtual tables and EXPLAIN ANALYZE (with its timings masked), plus
   the name errors a SELECT can raise. Any change in how a statement is
   bound or planned shows up here as a changed line. *)

module Db = Tip_engine.Database

let setup =
  [ "SET NOW = '2000-01-01'";
    "CREATE TABLE a (id INT PRIMARY KEY, g CHAR(5), v INT)";
    "CREATE TABLE b (id INT PRIMARY KEY, a_id INT, w INT)";
    "CREATE INDEX a_v ON a (v)";
    "INSERT INTO a VALUES (1, 'x', 10), (2, 'y', 20), (3, 'x', 30)";
    "INSERT INTO b VALUES (1, 1, 5), (2, 2, 6), (3, 2, 7)";
    "CREATE TABLE o (k INT PRIMARY KEY, v INT, n INT NOT NULL)";
    "CREATE INDEX o_n ON o (n)";
    "INSERT INTO o VALUES (2, 20, 7), (1, 10, 9), (3, 30, 8)";
    "CREATE TABLE c (id INT, x INT)";
    "CREATE TABLE d (id INT, y INT)";
    "INSERT INTO c VALUES (1, 10), (2, 20), (3, 30), (4, 40)";
    "INSERT INTO d VALUES (1, 100), (2, 200)";
    "ANALYZE c";
    "ANALYZE d";
    "CREATE TABLE rx (id INT, valid Element)";
    "CREATE INDEX rx_v ON rx (valid) USING INTERVAL";
    "INSERT INTO rx VALUES (1, '{[1999-01-01, 1999-02-01]}'), \
     (2, '{[1999-03-10, 1999-05-01]}')";
    "CREATE TABLE p (id INT, dept CHAR(8), valid Element) PARTITION BY RANGE \
     (valid) (PARTITION y2020 FOR VALUES FROM '2020-01-01' TO '2021-01-01', \
     PARTITION y2021 FOR VALUES FROM '2021-01-01' TO '2022-01-01', \
     PARTITION pdefault DEFAULT)";
    "INSERT INTO p VALUES (1, 'a', '{[2020-03-01, 2020-06-01]}'), \
     (2, 'b', '{[2021-03-01, 2021-06-01]}')";
    "SET NOW = '1999-01-01'";
    "CREATE TABLE staff (name CHAR(20), role CHAR(20)) WITH HISTORY";
    "INSERT INTO staff VALUES ('ann', 'clerk'), ('bob', 'chef')";
    "SET NOW = '1999-06-01'";
    "UPDATE staff SET role = 'boss' WHERE name = 'ann'";
    "SET NOW = '2000-01-01'" ]

let script =
  [ (* scans *)
    "EXPLAIN SELECT * FROM a";
    "EXPLAIN SELECT * FROM a WHERE id = 1";
    "EXPLAIN SELECT * FROM a WHERE v BETWEEN 5 AND 15";
    "EXPLAIN SELECT * FROM a WHERE 15 <= v AND g = 'x'";
    "EXPLAIN SELECT * FROM a WHERE v + 1 = 16";
    "EXPLAIN SELECT id FROM rx WHERE overlaps(valid, \
     '{[1999-03-01, 1999-04-01]}'::Element)";
    "EXPLAIN SELECT * FROM p WHERE overlaps(valid, \
     '{[2020-03-01, 2020-04-01]}'::Element)";
    "EXPLAIN SELECT * FROM p WHERE id = 2";
    "EXPLAIN SELECT k FROM o ORDER BY n";
    "EXPLAIN SELECT k FROM o ORDER BY n DESC";
    "EXPLAIN SELECT k FROM o WHERE v > 0 ORDER BY n";
    (* joins *)
    "EXPLAIN SELECT * FROM a, b WHERE a.id = b.a_id";
    "EXPLAIN SELECT * FROM c JOIN d ON c.id = d.id";
    "EXPLAIN SELECT c.x, d.y FROM d, c WHERE d.id = c.id AND c.x > 15";
    "EXPLAIN SELECT * FROM a, b WHERE a.id < b.a_id";
    "EXPLAIN SELECT * FROM a LEFT JOIN b ON a.id = b.a_id WHERE b.w IS NULL";
    "EXPLAIN SELECT a.id, b.w FROM a LEFT JOIN b ON a.id = b.a_id AND b.w > 5 \
     WHERE a.v > 15 AND a.id + b.w > 0";
    "EXPLAIN SELECT a.*, b.w FROM a JOIN b ON a.id = b.a_id WHERE a.g = 'x'";
    (* subqueries *)
    "EXPLAIN SELECT * FROM a WHERE EXISTS (SELECT 1 FROM b WHERE b.a_id = a.id)";
    "EXPLAIN SELECT id FROM a a1 WHERE NOT EXISTS (SELECT 1 FROM a a2 WHERE \
     a2.v > a1.v)";
    "EXPLAIN SELECT * FROM a WHERE id IN (SELECT a_id FROM b WHERE w > 5)";
    "EXPLAIN SELECT id, (SELECT MAX(w) FROM b) FROM a";
    "EXPLAIN SELECT id, (SELECT COUNT(*) FROM b WHERE b.a_id = a.id) AS nb \
     FROM a";
    "EXPLAIN SELECT * FROM a WHERE v > (SELECT MIN(w) FROM b)";
    "EXPLAIN SELECT * FROM a, b WHERE a.id = b.a_id AND EXISTS (SELECT 1 FROM \
     b b2 WHERE b2.w = a.v)";
    "EXPLAIN SELECT * FROM (SELECT g, COUNT(*) AS n FROM a GROUP BY g) t \
     WHERE t.n > 0";
    (* grouping and ordering *)
    "EXPLAIN SELECT g, COUNT(*) FROM a GROUP BY 1";
    "EXPLAIN SELECT g AS grp, SUM(v) FROM a GROUP BY grp";
    "EXPLAIN SELECT g, COUNT(*) FROM a GROUP BY g HAVING COUNT(*) > 0 ORDER \
     BY g LIMIT 1";
    "EXPLAIN SELECT g, SUM(v) AS total FROM a GROUP BY g ORDER BY total DESC";
    "EXPLAIN SELECT g, COUNT(DISTINCT v), AVG(v) FROM a GROUP BY g ORDER BY 2";
    "EXPLAIN SELECT COUNT(*) FROM a";
    "EXPLAIN SELECT id, v FROM a ORDER BY 2 DESC";
    "EXPLAIN SELECT id AS ident FROM a ORDER BY ident";
    (* DISTINCT, LIMIT, UNION *)
    "EXPLAIN SELECT DISTINCT g FROM a";
    "EXPLAIN SELECT id FROM a ORDER BY id LIMIT 1 OFFSET 1";
    "EXPLAIN SELECT id FROM a UNION SELECT id FROM b";
    "EXPLAIN SELECT id FROM a UNION ALL SELECT a_id FROM b UNION ALL SELECT 3";
    "EXPLAIN SELECT 1";
    (* time travel and virtual tables *)
    "EXPLAIN SELECT name, role FROM staff AS OF '1999-04-01'";
    "EXPLAIN SELECT s.name FROM staff AS OF '1999-04-01' s, staff t WHERE \
     s.name = t.name AND s.role <> t.role";
    "EXPLAIN SELECT table_name, row_count FROM tip_stat_tables WHERE \
     table_name = 'a'";
    (* EXPLAIN ANALYZE *)
    "EXPLAIN ANALYZE SELECT * FROM a WHERE id = 1";
    "EXPLAIN ANALYZE SELECT g, COUNT(*) FROM a GROUP BY g ORDER BY 1";
    "EXPLAIN ANALYZE SELECT * FROM a, b WHERE a.id = b.a_id";
    (* name errors *)
    "EXPLAIN SELECT * FROM a WHERE zz.id = 1";
    "EXPLAIN SELECT zz.* FROM a";
    "EXPLAIN SELECT id FROM a, b";
    "EXPLAIN SELECT a.nope FROM a";
    "EXPLAIN SELECT nope FROM a";
    "EXPLAIN SELECT id FROM a ORDER BY 3";
    "EXPLAIN SELECT g, v FROM a GROUP BY g";
    "EXPLAIN SELECT * FROM a WHERE COUNT(*) > 1";
    "EXPLAIN SELECT * FROM nosuch";
    "EXPLAIN SELECT * FROM a AS OF '1999-01-01'" ]

(* Timings are the only text that varies between runs. *)
let mask =
  let times = Str.regexp "time=[0-9.]+ ms" in
  let phases = Str.regexp "^Phases: .*$" in
  fun text ->
    Str.global_replace phases "Phases: ?"
      (Str.global_replace times "time=? ms" text)

let transcript () =
  let db = Tip_blade.Blade.create_database () in
  List.iter (fun sql -> ignore (Db.exec db sql)) setup;
  let buf = Buffer.create 4096 in
  List.iter
    (fun sql ->
      let out =
        match Db.exec db sql with
        | Db.Message m -> mask m
        | _ -> "(not a plan)"
        | exception Db.Error m -> "error: " ^ m
        | exception Tip_engine.Planner.Plan_error m -> "error: " ^ m
      in
      Printf.bprintf buf "> %s\n%s\n\n" sql out)
    script;
  Buffer.contents buf

let expected = {|> EXPLAIN SELECT * FROM a
Project [id, g, v]
  SeqScan a

> EXPLAIN SELECT * FROM a WHERE id = 1
Project [id, g, v]
  Filter (id = 1)
    IndexScan a on (id = 1)

> EXPLAIN SELECT * FROM a WHERE v BETWEEN 5 AND 15
Project [id, g, v]
  Filter (v BETWEEN 5 AND 15)
    IndexScan a on (v BETWEEN 5 AND 15)

> EXPLAIN SELECT * FROM a WHERE 15 <= v AND g = 'x'
Project [id, g, v]
  Filter (15 <= v) AND (g = 'x')
    IndexScan a on (15 <= v)

> EXPLAIN SELECT * FROM a WHERE v + 1 = 16
Project [id, g, v]
  Filter ((v + 1) = 16)
    SeqScan a

> EXPLAIN SELECT id FROM rx WHERE overlaps(valid, '{[1999-03-01, 1999-04-01]}'::Element)
Project [id]
  Filter overlaps(valid, '{[1999-03-01, 1999-04-01]}'::Element)
    IntervalScan rx probe overlaps(valid, '{[1999-03-01, 1999-04-01]}'::Element)

> EXPLAIN SELECT * FROM p WHERE overlaps(valid, '{[2020-03-01, 2020-04-01]}'::Element)
Project [id, dept, valid]
  PartitionScan p partitions=1/3 pruned=2 probe [2020-03-01, 2020-04-01]
    Filter overlaps(valid, '{[2020-03-01, 2020-04-01]}'::Element)
      SeqScan p__y2020

> EXPLAIN SELECT * FROM p WHERE id = 2
Project [id, dept, valid]
  PartitionScan p partitions=3/3 pruned=0
    Filter (id = 2)
      SeqScan p__y2020
    Filter (id = 2)
      SeqScan p__y2021
    Filter (id = 2)
      SeqScan p__pdefault

> EXPLAIN SELECT k FROM o ORDER BY n
Project [k]
  IndexScan o (satisfies ORDER BY)

> EXPLAIN SELECT k FROM o ORDER BY n DESC
Project [k]
  Sort n DESC
    SeqScan o

> EXPLAIN SELECT k FROM o WHERE v > 0 ORDER BY n
Project [k]
  Sort n
    Filter (v > 0)
      SeqScan o

> EXPLAIN SELECT * FROM a, b WHERE a.id = b.a_id
Project [id, g, v, id, a_id, w]
  HashJoin (a.id = b.a_id)
    SeqScan a
    SeqScan b

> EXPLAIN SELECT * FROM c JOIN d ON c.id = d.id
Project [id, x, id, y]
  HashJoin (c.id = d.id) (build=right, est left=4 right=2)
    SeqScan c (est rows=4)
    SeqScan d (est rows=2)

> EXPLAIN SELECT c.x, d.y FROM d, c WHERE d.id = c.id AND c.x > 15
Project [x, y]
  HashJoin (d.id = c.id) (build=right, est left=2 right=1)
    SeqScan d (est rows=2)
    Filter (c.x > 15) (est rows=1)
      SeqScan c (est rows=4)

> EXPLAIN SELECT * FROM a, b WHERE a.id < b.a_id
Project [id, g, v, id, a_id, w]
  Filter (a.id < b.a_id)
    NestedLoop
      SeqScan a
      SeqScan b

> EXPLAIN SELECT * FROM a LEFT JOIN b ON a.id = b.a_id WHERE b.w IS NULL
Project [id, g, v, id, a_id, w]
  Filter (b.w IS NULL)
    LeftOuterJoin (a.id = b.a_id)
      SeqScan a
      SeqScan b

> EXPLAIN SELECT a.id, b.w FROM a LEFT JOIN b ON a.id = b.a_id AND b.w > 5 WHERE a.v > 15 AND a.id + b.w > 0
Project [id, w]
  Filter ((a.id + b.w) > 0)
    LeftOuterJoin ((a.id = b.a_id) AND (b.w > 5))
      Filter (a.v > 15)
        IndexScan a on (a.v > 15)
      SeqScan b

> EXPLAIN SELECT a.*, b.w FROM a JOIN b ON a.id = b.a_id WHERE a.g = 'x'
Project [id, g, v, w]
  HashJoin (a.id = b.a_id)
    Filter (a.g = 'x')
      SeqScan a
    SeqScan b

> EXPLAIN SELECT * FROM a WHERE EXISTS (SELECT 1 FROM b WHERE b.a_id = a.id)
Project [id, g, v]
  Filter (EXISTS (SELECT 1 FROM b WHERE (b.a_id = a.id)))
    SeqScan a

> EXPLAIN SELECT id FROM a a1 WHERE NOT EXISTS (SELECT 1 FROM a a2 WHERE a2.v > a1.v)
Project [id]
  Filter (NOT (EXISTS (SELECT 1 FROM a a2 WHERE (a2.v > a1.v))))
    SeqScan a

> EXPLAIN SELECT * FROM a WHERE id IN (SELECT a_id FROM b WHERE w > 5)
Project [id, g, v]
  Filter (id IN (SELECT a_id FROM b WHERE (w > 5)))
    SeqScan a

> EXPLAIN SELECT id, (SELECT MAX(w) FROM b) FROM a
Project [id, (SELECT MAX(w) FROM b)]
  SeqScan a

> EXPLAIN SELECT id, (SELECT COUNT(*) FROM b WHERE b.a_id = a.id) AS nb FROM a
Project [id, nb]
  SeqScan a

> EXPLAIN SELECT * FROM a WHERE v > (SELECT MIN(w) FROM b)
Project [id, g, v]
  Filter (v > (SELECT MIN(w) FROM b))
    SeqScan a

> EXPLAIN SELECT * FROM a, b WHERE a.id = b.a_id AND EXISTS (SELECT 1 FROM b b2 WHERE b2.w = a.v)
Project [id, g, v, id, a_id, w]
  Filter (EXISTS (SELECT 1 FROM b b2 WHERE (b2.w = a.v)))
    HashJoin (a.id = b.a_id)
      SeqScan a
      SeqScan b

> EXPLAIN SELECT * FROM (SELECT g, COUNT(*) AS n FROM a GROUP BY g) t WHERE t.n > 0
Project [g, n]
  Filter (t.n > 0)
    Project [g, n]
      Aggregate keys=[g] aggs=[count(*)]
        SeqScan a

> EXPLAIN SELECT g, COUNT(*) FROM a GROUP BY 1
Project [g, count]
  Aggregate keys=[g] aggs=[count(*)]
    SeqScan a

> EXPLAIN SELECT g AS grp, SUM(v) FROM a GROUP BY grp
Project [grp, sum]
  Aggregate keys=[g] aggs=[SUM(v)]
    SeqScan a

> EXPLAIN SELECT g, COUNT(*) FROM a GROUP BY g HAVING COUNT(*) > 0 ORDER BY g LIMIT 1
Limit limit=1
  Project [g, count]
    Sort g
      Filter (COUNT(*) > 0)
        Aggregate keys=[g] aggs=[count(*)]
          SeqScan a

> EXPLAIN SELECT g, SUM(v) AS total FROM a GROUP BY g ORDER BY total DESC
Project [g, total]
  Sort SUM(v) DESC
    Aggregate keys=[g] aggs=[SUM(v)]
      SeqScan a

> EXPLAIN SELECT g, COUNT(DISTINCT v), AVG(v) FROM a GROUP BY g ORDER BY 2
Project [g, COUNT(DISTINCT v), avg]
  Sort COUNT(DISTINCT v)
    Aggregate keys=[g] aggs=[COUNT(DISTINCT v), AVG(v)]
      SeqScan a

> EXPLAIN SELECT COUNT(*) FROM a
Project [count]
  Aggregate keys=[] aggs=[count(*)]
    SeqScan a

> EXPLAIN SELECT id, v FROM a ORDER BY 2 DESC
Project [id, v]
  Sort v DESC
    SeqScan a

> EXPLAIN SELECT id AS ident FROM a ORDER BY ident
Project [ident]
  IndexScan a (satisfies ORDER BY)

> EXPLAIN SELECT DISTINCT g FROM a
Distinct
  Project [g]
    SeqScan a

> EXPLAIN SELECT id FROM a ORDER BY id LIMIT 1 OFFSET 1
Limit limit=1 offset=1
  Project [id]
    IndexScan a (satisfies ORDER BY)

> EXPLAIN SELECT id FROM a UNION SELECT id FROM b
Distinct
  Append
    Project [id]
      SeqScan a
    Project [id]
      SeqScan b

> EXPLAIN SELECT id FROM a UNION ALL SELECT a_id FROM b UNION ALL SELECT 3
Append
  Project [id]
    SeqScan a
  Project [a_id]
    SeqScan b
  Project [3]
    OneRow

> EXPLAIN SELECT 1
Project [1]
  OneRow

> EXPLAIN SELECT name, role FROM staff AS OF '1999-04-01'
Project [name, role]
  Project [name, role]
    Filter _tt contains 1999-04-01
      SeqScan staff_history

> EXPLAIN SELECT s.name FROM staff AS OF '1999-04-01' s, staff t WHERE s.name = t.name AND s.role <> t.role
Project [name]
  Filter (s.role <> t.role)
    HashJoin (s.name = t.name)
      Project [name, role]
        Filter _tt contains 1999-04-01
          SeqScan staff_history
      SeqScan staff

> EXPLAIN SELECT table_name, row_count FROM tip_stat_tables WHERE table_name = 'a'
Project [table_name, row_count]
  Filter (table_name = 'a')
    VirtualScan tip_stat_tables

> EXPLAIN ANALYZE SELECT * FROM a WHERE id = 1
Project [id, g, v] (actual rows=1 time=? ms)
  Filter (id = 1) (actual rows=1 time=? ms)
    IndexScan a on (id = 1) (actual rows=1 time=? ms)

Phases: ?
Rows: 1
NOW: 2000-01-01

> EXPLAIN ANALYZE SELECT g, COUNT(*) FROM a GROUP BY g ORDER BY 1
Project [g, count] (actual rows=2 time=? ms)
  Sort g (actual rows=2 time=? ms)
    Aggregate keys=[g] aggs=[count(*)] (actual rows=2 time=? ms)
      SeqScan a (actual rows=3 time=? ms)

Phases: ?
Rows: 2
NOW: 2000-01-01

> EXPLAIN ANALYZE SELECT * FROM a, b WHERE a.id = b.a_id
Project [id, g, v, id, a_id, w] (actual rows=3 time=? ms)
  HashJoin (a.id = b.a_id) (actual rows=3 time=? ms)
    SeqScan a (actual rows=3 time=? ms)
    SeqScan b (actual rows=3 time=? ms)

Phases: ?
Rows: 3
NOW: 2000-01-01

> EXPLAIN SELECT * FROM a WHERE zz.id = 1
error: unknown table or alias zz

> EXPLAIN SELECT zz.* FROM a
error: unknown table or alias zz

> EXPLAIN SELECT id FROM a, b
error: ambiguous column id

> EXPLAIN SELECT a.nope FROM a
error: no column nope in a

> EXPLAIN SELECT nope FROM a
error: unknown column nope

> EXPLAIN SELECT id FROM a ORDER BY 3
error: ORDER BY position 3 is not selectable

> EXPLAIN SELECT g, v FROM a GROUP BY g
error: column v must appear in GROUP BY or an aggregate

> EXPLAIN SELECT * FROM a WHERE COUNT(*) > 1
error: aggregate calls are not allowed in WHERE

> EXPLAIN SELECT * FROM nosuch
error: no such table: nosuch

> EXPLAIN SELECT * FROM a AS OF '1999-01-01'
error: table a has no transaction-time history

|}

let check_transcript () =
  let actual = transcript () in
  if actual <> expected then begin
    let el = String.split_on_char '\n' expected
    and al = String.split_on_char '\n' actual in
    let rec first i = function
      | e :: es, a :: as_ when e = a -> first (i + 1) (es, as_)
      | e :: _, a :: _ -> (i, e, a)
      | [], a :: _ -> (i, "<end>", a)
      | e :: _, [] -> (i, e, "<end>")
      | [], [] -> (i, "", "")
    in
    let line, e, a = first 1 (el, al) in
    Alcotest.failf
      "EXPLAIN transcript differs at line %d:\nexpected: %s\nactual:   %s\n\n\
       actual transcript:\n%s"
      line e a actual
  end

let suite =
  [ Alcotest.test_case "EXPLAIN text byte for byte" `Quick check_transcript ]
