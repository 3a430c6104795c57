(* A writer-preferring shared/exclusive lock over one mutex and two
   condition variables. Readers hold it together; a writer holds it
   alone. Once a writer is waiting, new readers queue behind it, so a
   steady stream of reads cannot starve a write. *)

type t = {
  m : Mutex.t;
  readers_ok : Condition.t;
  writer_ok : Condition.t;
  mutable readers : int; (* shared holders *)
  mutable writer : bool; (* an exclusive holder *)
  mutable writers_waiting : int;
}

let create () =
  { m = Mutex.create ();
    readers_ok = Condition.create ();
    writer_ok = Condition.create ();
    readers = 0;
    writer = false;
    writers_waiting = 0 }

let lock_shared t =
  Mutex.lock t.m;
  while t.writer || t.writers_waiting > 0 do
    Condition.wait t.readers_ok t.m
  done;
  t.readers <- t.readers + 1;
  Mutex.unlock t.m

let unlock_shared t =
  Mutex.lock t.m;
  t.readers <- t.readers - 1;
  if t.readers = 0 && t.writers_waiting > 0 then Condition.signal t.writer_ok;
  Mutex.unlock t.m

let lock t =
  Mutex.lock t.m;
  t.writers_waiting <- t.writers_waiting + 1;
  while t.writer || t.readers > 0 do
    Condition.wait t.writer_ok t.m
  done;
  t.writers_waiting <- t.writers_waiting - 1;
  t.writer <- true;
  Mutex.unlock t.m

let unlock t =
  Mutex.lock t.m;
  t.writer <- false;
  if t.writers_waiting > 0 then Condition.signal t.writer_ok
  else Condition.broadcast t.readers_ok;
  Mutex.unlock t.m

let with_shared t f =
  lock_shared t;
  Fun.protect ~finally:(fun () -> unlock_shared t) f

let with_exclusive t f =
  lock t;
  Fun.protect ~finally:(fun () -> unlock t) f
