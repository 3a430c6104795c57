(** CREATE and DROP of tables and indexes; returns the acknowledgement.
    A create that would link to an existing [<name>_history] it did not
    make is refused before anything is created. *)
val exec : Dml.cx -> Tip_sql.Ast.statement -> string
