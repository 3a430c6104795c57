(* Recursive-descent parser for the SQL dialect described in [Ast].

   Keywords are case-insensitive and only reserved where the grammar
   needs them (e.g. an alias cannot be WHERE), so TIP routine names such
   as [intersect], [start] or [contains] remain usable as identifiers. *)

exception Error of string

type state = { tokens : Token.located array; mutable pos : int }

let error st msg =
  let t = st.tokens.(st.pos) in
  raise
    (Error
       (Printf.sprintf "parse error at line %d, column %d (near %s): %s"
          t.Token.line t.Token.column
          (Token.to_string t.Token.token)
          msg))

let peek st = st.tokens.(st.pos).Token.token

let peek2 st =
  if st.pos + 1 < Array.length st.tokens then
    st.tokens.(st.pos + 1).Token.token
  else Token.Eof

let advance st = if st.pos < Array.length st.tokens - 1 then st.pos <- st.pos + 1

let next st =
  let t = peek st in
  advance st;
  t

(* --- Keyword helpers -------------------------------------------------- *)

(* [s] spells the upper-case keyword [kw] in any case, compared in
   place: the parser probes keywords at nearly every token. *)
let rec same_upper s kw i =
  i >= String.length kw
  || Char.uppercase_ascii (String.unsafe_get s i) = String.unsafe_get kw i
     && same_upper s kw (i + 1)

let kw_equal s kw = String.length s = String.length kw && same_upper s kw 0

let is_kw kw = function
  | Token.Ident s -> kw_equal s kw
  | Token.Int _ | Token.Float _ | Token.String _ | Token.Quoted_ident _
  | Token.Param _ | Token.Symbol _ | Token.Eof -> false

let at_kw st kw = is_kw kw (peek st)

let eat_kw st kw =
  if at_kw st kw then begin
    advance st;
    true
  end
  else false

let expect_kw st kw =
  if not (eat_kw st kw) then error st (Printf.sprintf "expected %s" kw)

let at_sym st s =
  match peek st with Token.Symbol s' -> String.equal s s' | _ -> false

let eat_sym st s =
  if at_sym st s then begin
    advance st;
    true
  end
  else false

let expect_sym st s =
  if not (eat_sym st s) then error st (Printf.sprintf "expected %S" s)

let reserved =
  [ "SELECT"; "FROM"; "WHERE"; "GROUP"; "BY"; "HAVING"; "ORDER"; "LIMIT";
    "OFFSET"; "AS"; "ON"; "JOIN"; "INNER"; "LEFT"; "OUTER"; "CROSS"; "AND";
    "OR"; "NOT"; "IN"; "BETWEEN"; "LIKE"; "IS"; "NULL"; "DISTINCT"; "INSERT";
    "INTO"; "VALUES"; "UPDATE"; "SET"; "DELETE"; "CREATE"; "TABLE"; "DROP";
    "INDEX"; "UNIQUE"; "EXPLAIN"; "BEGIN"; "COMMIT"; "ROLLBACK"; "SHOW";
    "DESCRIBE"; "ASC"; "DESC"; "CASE"; "WHEN"; "THEN"; "ELSE"; "END"; "TRUE";
    "FALSE"; "PRIMARY"; "KEY"; "IF"; "EXISTS"; "CAST" ]

let rec mem_kw s = function
  | [] -> false
  | kw :: rest -> kw_equal s kw || mem_kw s rest

let is_reserved s = mem_kw s reserved

(* Words that terminate a SELECT body and therefore cannot be bare
   aliases, even though they stay usable as routine names. *)
let ends_select s = kw_equal s "UNION"

(* Any identifier, including quoted ones (which are never keywords). *)
let ident st =
  match peek st with
  | Token.Ident s when not (is_reserved s) ->
    advance st;
    s
  | Token.Quoted_ident s ->
    advance st;
    s
  | _ -> error st "expected identifier"

(* --- Expressions ------------------------------------------------------ *)

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = parse_and st in
  if eat_kw st "OR" then Ast.Binop (Ast.Or, lhs, parse_or st) else lhs

and parse_and st =
  let lhs = parse_not st in
  if eat_kw st "AND" then Ast.Binop (Ast.And, lhs, parse_and st) else lhs

and parse_not st =
  if eat_kw st "NOT" then Ast.Unop (Ast.Not, parse_not st)
  else parse_comparison st

and parse_comparison st =
  let lhs = parse_additive st in
  let simple op =
    advance st;
    Ast.Binop (op, lhs, parse_additive st)
  in
  match peek st with
  | Token.Symbol "=" -> simple Ast.Eq
  | Token.Symbol "<>" -> simple Ast.Neq
  | Token.Symbol "<" -> simple Ast.Lt
  | Token.Symbol "<=" -> simple Ast.Le
  | Token.Symbol ">" -> simple Ast.Gt
  | Token.Symbol ">=" -> simple Ast.Ge
  | Token.Ident _ -> parse_postfix_predicate st lhs
  | Token.Int _ | Token.Float _ | Token.String _ | Token.Quoted_ident _
  | Token.Param _ | Token.Symbol _ | Token.Eof -> lhs

(* IS [NOT] NULL, [NOT] IN, [NOT] BETWEEN ... AND ..., [NOT] LIKE. *)
and parse_postfix_predicate st scrutinee =
  if eat_kw st "IS" then begin
    let negated = eat_kw st "NOT" in
    expect_kw st "NULL";
    Ast.Is_null { negated; scrutinee }
  end
  else begin
    let negated = eat_kw st "NOT" in
    if eat_kw st "IN" then begin
      expect_sym st "(";
      if at_kw st "SELECT" then begin
        advance st;
        let query = parse_select_body st in
        expect_sym st ")";
        Ast.In_select { negated; scrutinee; query }
      end
      else begin
        let choices = parse_expr_list st in
        expect_sym st ")";
        Ast.In_list { negated; scrutinee; choices }
      end
    end
    else if eat_kw st "BETWEEN" then begin
      let low = parse_additive st in
      expect_kw st "AND";
      let high = parse_additive st in
      Ast.Between { negated; scrutinee; low; high }
    end
    else if eat_kw st "LIKE" then
      Ast.Like { negated; scrutinee; pattern = parse_additive st }
    else if negated then error st "expected IN, BETWEEN or LIKE after NOT"
    else scrutinee
  end

and parse_additive st =
  let rec loop lhs =
    if eat_sym st "+" then loop (Ast.Binop (Ast.Add, lhs, parse_multiplicative st))
    else if eat_sym st "-" then
      loop (Ast.Binop (Ast.Sub, lhs, parse_multiplicative st))
    else if eat_sym st "||" then
      loop (Ast.Binop (Ast.Concat, lhs, parse_multiplicative st))
    else lhs
  in
  loop (parse_multiplicative st)

and parse_multiplicative st =
  let rec loop lhs =
    if eat_sym st "*" then loop (Ast.Binop (Ast.Mul, lhs, parse_unary st))
    else if eat_sym st "/" then loop (Ast.Binop (Ast.Div, lhs, parse_unary st))
    else if eat_sym st "%" then loop (Ast.Binop (Ast.Mod, lhs, parse_unary st))
    else lhs
  in
  loop (parse_unary st)

and parse_unary st =
  if eat_sym st "-" then Ast.Unop (Ast.Neg, parse_unary st)
  else if eat_sym st "+" then parse_unary st
  else parse_cast st

(* Informix postfix cast: expr::Type, left-associative chains allowed. *)
and parse_cast st =
  let rec loop e =
    if eat_sym st "::" then loop (Ast.Cast (e, ident st)) else e
  in
  loop (parse_primary st)

and parse_expr_list st =
  let rec loop acc =
    let e = parse_expr st in
    if eat_sym st "," then loop (e :: acc) else List.rev (e :: acc)
  in
  loop []

and parse_case st =
  let rec arms acc =
    if eat_kw st "WHEN" then begin
      let cond = parse_expr st in
      expect_kw st "THEN";
      let v = parse_expr st in
      arms ((cond, v) :: acc)
    end
    else List.rev acc
  in
  let arms = arms [] in
  if arms = [] then error st "CASE requires at least one WHEN arm";
  let else_ = if eat_kw st "ELSE" then Some (parse_expr st) else None in
  expect_kw st "END";
  Ast.Case (arms, else_)

and parse_primary st =
  match peek st with
  | Token.Int n ->
    advance st;
    Ast.Lit (Ast.L_int n)
  | Token.Float f ->
    advance st;
    Ast.Lit (Ast.L_float f)
  | Token.String s ->
    advance st;
    Ast.Lit (Ast.L_string s)
  | Token.Param name ->
    advance st;
    Ast.Param name
  | Token.Symbol "(" ->
    advance st;
    if at_kw st "SELECT" then begin
      advance st;
      let q = parse_select_body st in
      expect_sym st ")";
      Ast.Scalar_subquery q
    end
    else begin
      let e = parse_expr st in
      expect_sym st ")";
      e
    end
  | Token.Ident _ when at_kw st "TRUE" ->
    advance st;
    Ast.Lit (Ast.L_bool true)
  | Token.Ident _ when at_kw st "FALSE" ->
    advance st;
    Ast.Lit (Ast.L_bool false)
  | Token.Ident _ when at_kw st "NULL" ->
    advance st;
    Ast.Lit Ast.L_null
  | Token.Ident _ when at_kw st "CASE" ->
    advance st;
    parse_case st
  | Token.Ident _ when at_kw st "EXISTS" ->
    advance st;
    expect_sym st "(";
    expect_kw st "SELECT";
    let q = parse_select_body st in
    expect_sym st ")";
    Ast.Exists q
  | Token.Ident _ when at_kw st "CAST" ->
    (* CAST(expr AS Type) sugar for expr::Type *)
    advance st;
    expect_sym st "(";
    let e = parse_expr st in
    expect_kw st "AS";
    let ty = ident st in
    (* Allow CHAR(20)-style type parameters; the engine ignores the width
       in casts. *)
    if eat_sym st "(" then begin
      (match next st with
      | Token.Int _ -> ()
      | _ -> error st "expected type width");
      expect_sym st ")"
    end;
    expect_sym st ")";
    Ast.Cast (e, ty)
  | Token.Ident _ | Token.Quoted_ident _ -> parse_name_or_call st
  | Token.Symbol _ | Token.Eof -> error st "expected expression"

(* identifier, qualified column, or function call *)
and parse_name_or_call st =
  let name =
    match peek st with
    | Token.Ident s when not (is_reserved s) ->
      advance st;
      s
    | Token.Quoted_ident s ->
      advance st;
      s
    | _ -> error st "expected identifier"
  in
  if at_sym st "(" then begin
    advance st;
    if eat_sym st ")" then Ast.Call (name, [])
    else if at_sym st "*" && kw_equal name "COUNT" then begin
      advance st;
      expect_sym st ")";
      Ast.Count_star
    end
    else if eat_kw st "DISTINCT" then begin
      let arg = parse_expr st in
      expect_sym st ")";
      Ast.Call_distinct (name, arg)
    end
    else begin
      let args = parse_expr_list st in
      expect_sym st ")";
      Ast.Call (name, args)
    end
  end
  else if at_sym st "." && (match peek2 st with
                           | Token.Ident _ | Token.Quoted_ident _ -> true
                           | _ -> false) then begin
    advance st;
    let col = ident st in
    Ast.Column (Some name, col)
  end
  else Ast.Column (None, name)

(* --- SELECT ----------------------------------------------------------- *)

and parse_select_item st =
  if eat_sym st "*" then Ast.Sel_star None
  else begin
    (* t.* needs two-token lookahead before falling back to expressions. *)
    match peek st, peek2 st with
    | (Token.Ident name, Token.Symbol ".")
      when (not (is_reserved name))
           && (match st.tokens.(st.pos + 2).Token.token with
              | Token.Symbol "*" -> true
              | _ -> false) ->
      advance st;
      advance st;
      advance st;
      Ast.Sel_star (Some name)
    | _, _ ->
      let e = parse_expr st in
      let alias =
        if eat_kw st "AS" then Some (ident st)
        else begin
          match peek st with
          | Token.Ident s when (not (is_reserved s)) && not (ends_select s) ->
            advance st;
            Some s
          | Token.Quoted_ident s ->
            advance st;
            Some s
          | _ -> None
        end
      in
      Ast.Sel_expr (e, alias)
  end

and parse_table_ref st =
  let rec joins left =
    if eat_kw st "JOIN" then with_on left Ast.Inner
    else if at_kw st "INNER" && is_kw "JOIN" (peek2 st) then begin
      advance st;
      advance st;
      with_on left Ast.Inner
    end
    else if at_kw st "LEFT" then begin
      advance st;
      ignore (eat_kw st "OUTER");
      expect_kw st "JOIN";
      with_on left Ast.Left_outer
    end
    else if at_kw st "CROSS" && is_kw "JOIN" (peek2 st) then begin
      advance st;
      advance st;
      let right = parse_table_primary st in
      joins
        (Ast.Join { left; kind = Ast.Inner; right; on = Ast.Lit (Ast.L_bool true) })
    end
    else left
  and with_on left kind =
    let right = parse_table_primary st in
    expect_kw st "ON";
    let on = parse_expr st in
    joins (Ast.Join { left; kind; right; on })
  in
  joins (parse_table_primary st)

and parse_table_primary st =
  if eat_sym st "(" then begin
    expect_kw st "SELECT";
    let q = parse_select_body st in
    expect_sym st ")";
    ignore (eat_kw st "AS");
    let alias = ident st in
    Ast.Derived { query = q; alias }
  end
  else begin
    let name = ident st in
    (* [AS OF] vs [AS alias]: look one token past AS. *)
    let at_as_of () =
      at_kw st "AS" && is_kw "OF" (peek2 st)
    in
    let alias =
      if at_as_of () then None
      else if eat_kw st "AS" then Some (ident st)
      else begin
        match peek st with
        | Token.Ident s
          when (not (is_reserved s)) && (not (ends_select s))
               && not (kw_equal s "OF") ->
          advance st;
          Some s
        | Token.Quoted_ident s ->
          advance st;
          Some s
        | _ -> None
      end
    in
    let as_of =
      if at_as_of () then begin
        advance st;
        advance st;
        Some (parse_additive st)
      end
      else None
    in
    (* The alias may also follow the AS OF clause: [t AS OF '...' x]. *)
    let alias =
      match alias, as_of with
      | None, Some _ -> (
        if eat_kw st "AS" then Some (ident st)
        else begin
          match peek st with
          | Token.Ident s when (not (is_reserved s)) && not (ends_select s) ->
            advance st;
            Some s
          | Token.Quoted_ident s ->
            advance st;
            Some s
          | _ -> None
        end)
      | alias, _ -> alias
    in
    Ast.Table { name; alias; as_of }
  end

(* Body after the SELECT keyword. *)
and parse_select_body st =
  let distinct = eat_kw st "DISTINCT" in
  let items =
    let rec loop acc =
      let item = parse_select_item st in
      if eat_sym st "," then loop (item :: acc) else List.rev (item :: acc)
    in
    loop []
  in
  let from =
    if eat_kw st "FROM" then begin
      let rec loop acc =
        let t = parse_table_ref st in
        if eat_sym st "," then loop (t :: acc) else List.rev (t :: acc)
      in
      loop []
    end
    else []
  in
  let where = if eat_kw st "WHERE" then Some (parse_expr st) else None in
  let group_by =
    if eat_kw st "GROUP" then begin
      expect_kw st "BY";
      parse_expr_list st
    end
    else []
  in
  let having = if eat_kw st "HAVING" then Some (parse_expr st) else None in
  let order_by =
    if eat_kw st "ORDER" then begin
      expect_kw st "BY";
      let rec loop acc =
        let e = parse_expr st in
        let dir =
          if eat_kw st "DESC" then Ast.Desc
          else begin
            ignore (eat_kw st "ASC");
            Ast.Asc
          end
        in
        if eat_sym st "," then loop ((e, dir) :: acc)
        else List.rev ((e, dir) :: acc)
      in
      loop []
    end
    else []
  in
  let limit =
    if eat_kw st "LIMIT" then begin
      match next st with
      | Token.Int n -> Some n
      | _ -> error st "expected integer after LIMIT"
    end
    else None
  in
  let offset =
    if eat_kw st "OFFSET" then begin
      match next st with
      | Token.Int n -> Some n
      | _ -> error st "expected integer after OFFSET"
    end
    else None
  in
  { Ast.distinct; items; from; where; group_by; having; order_by; limit; offset }

(* --- Other statements -------------------------------------------------- *)

let parse_column_def st =
  let col_name = ident st in
  let col_type =
    match peek st with
    | Token.Ident s ->
      advance st;
      s
    | _ -> error st "expected type name"
  in
  let col_type_param =
    if eat_sym st "(" then begin
      match next st with
      | Token.Int n ->
        expect_sym st ")";
        Some n
      | _ -> error st "expected type width"
    end
    else None
  in
  let rec constraints not_null primary_key =
    if eat_kw st "NOT" then begin
      expect_kw st "NULL";
      constraints true primary_key
    end
    else if eat_kw st "PRIMARY" then begin
      expect_kw st "KEY";
      constraints true true
    end
    else (not_null, primary_key)
  in
  let col_not_null, col_primary_key = constraints false false in
  { Ast.col_name; col_type; col_type_param; col_not_null; col_primary_key }

let parse_create st =
  if eat_kw st "TABLE" then begin
    let if_not_exists =
      if eat_kw st "IF" then begin
        expect_kw st "NOT";
        expect_kw st "EXISTS";
        true
      end
      else false
    in
    let table = ident st in
    if eat_kw st "AS" then begin
      expect_kw st "SELECT";
      Ast.Create_table_as { table; query = parse_select_body st }
    end
    else begin
      expect_sym st "(";
      let rec cols acc =
        let c = parse_column_def st in
        if eat_sym st "," then cols (c :: acc) else List.rev (c :: acc)
      in
      let columns = cols [] in
      expect_sym st ")";
      (* PARTITION BY RANGE (col) (PARTITION p FOR VALUES FROM 'a' TO 'b',
         ..., PARTITION pdef DEFAULT) *)
      let partition_by =
        if at_kw st "PARTITION" && is_kw "BY" (peek2 st) then begin
          advance st;
          advance st;
          expect_kw st "RANGE";
          expect_sym st "(";
          let part_column = ident st in
          expect_sym st ")";
          expect_sym st "(";
          let instant () =
            match next st with
            | Token.String s -> s
            | _ -> error st "expected an instant string literal"
          in
          let parse_part () =
            expect_kw st "PARTITION";
            let part_name = ident st in
            if eat_kw st "DEFAULT" then { Ast.part_name; part_range = None }
            else begin
              expect_kw st "FOR";
              expect_kw st "VALUES";
              expect_kw st "FROM";
              let from_i = instant () in
              expect_kw st "TO";
              let to_i = instant () in
              { Ast.part_name; part_range = Some (from_i, to_i) }
            end
          in
          let rec parts acc =
            let p = parse_part () in
            if eat_sym st "," then parts (p :: acc) else List.rev (p :: acc)
          in
          let part_defs = parts [] in
          expect_sym st ")";
          Some { Ast.part_column; part_defs }
        end
        else None
      in
      let with_history =
        if at_kw st "WITH" && is_kw "HISTORY" (peek2 st) then begin
          advance st;
          advance st;
          true
        end
        else false
      in
      Ast.Create_table { table; if_not_exists; columns; with_history; partition_by }
    end
  end
  else begin
    let unique = eat_kw st "UNIQUE" in
    expect_kw st "INDEX";
    let index = ident st in
    expect_kw st "ON";
    let table = ident st in
    expect_sym st "(";
    let column = ident st in
    expect_sym st ")";
    let using =
      if at_kw st "USING" then begin
        advance st;
        Some (ident st)
      end
      else None
    in
    Ast.Create_index { index; table; column; unique; using }
  end

let parse_insert st =
  expect_kw st "INTO";
  let table = ident st in
  let columns =
    if at_sym st "(" then begin
      advance st;
      let rec loop acc =
        let c = ident st in
        if eat_sym st "," then loop (c :: acc) else List.rev (c :: acc)
      in
      let cols = loop [] in
      expect_sym st ")";
      Some cols
    end
    else None
  in
  if eat_kw st "VALUES" then begin
    let parse_row () =
      expect_sym st "(";
      let row = parse_expr_list st in
      expect_sym st ")";
      row
    in
    let rec rows acc =
      let r = parse_row () in
      if eat_sym st "," then rows (r :: acc) else List.rev (r :: acc)
    in
    Ast.Insert { table; columns; source = Ast.Values (rows []) }
  end
  else if eat_kw st "SELECT" then
    Ast.Insert { table; columns; source = Ast.Query (parse_select_body st) }
  else error st "expected VALUES or SELECT"

(* SELECT body possibly followed by UNION [ALL] SELECT ... *)
let parse_compound st =
  let first = parse_select_body st in
  if not (at_kw st "UNION") then Ast.Select first
  else begin
    let rec unions left =
      if eat_kw st "UNION" then begin
        let all = eat_kw st "ALL" in
        expect_kw st "SELECT";
        let right = Ast.Simple (parse_select_body st) in
        unions (Ast.Union { all; left; right })
      end
      else left
    in
    Ast.Select_compound (unions (Ast.Simple first))
  end

let rec parse_statement st =
  if eat_kw st "SELECT" then parse_compound st
  else if eat_kw st "INSERT" then parse_insert st
  else if eat_kw st "UPDATE" then begin
    let table = ident st in
    expect_kw st "SET";
    let rec assigns acc =
      let col = ident st in
      expect_sym st "=";
      let e = parse_expr st in
      if eat_sym st "," then assigns ((col, e) :: acc)
      else List.rev ((col, e) :: acc)
    in
    let assignments = assigns [] in
    let where = if eat_kw st "WHERE" then Some (parse_expr st) else None in
    Ast.Update { table; assignments; where }
  end
  else if eat_kw st "DELETE" then begin
    expect_kw st "FROM";
    let table = ident st in
    let where = if eat_kw st "WHERE" then Some (parse_expr st) else None in
    Ast.Delete { table; where }
  end
  else if eat_kw st "CREATE" then parse_create st
  else if eat_kw st "DROP" then begin
    if eat_kw st "TABLE" then begin
      let if_exists =
        if eat_kw st "IF" then begin
          expect_kw st "EXISTS";
          true
        end
        else false
      in
      Ast.Drop_table { table = ident st; if_exists }
    end
    else begin
      expect_kw st "INDEX";
      Ast.Drop_index { index = ident st }
    end
  end
  else if eat_kw st "EXPLAIN" then begin
    let analyze = eat_kw st "ANALYZE" in
    Ast.Explain { analyze; target = parse_statement st }
  end
  else if eat_kw st "BEGIN" then begin
    ignore (eat_kw st "WORK" || eat_kw st "TRANSACTION");
    Ast.Begin_tx
  end
  else if eat_kw st "COMMIT" then begin
    ignore (eat_kw st "WORK" || eat_kw st "TRANSACTION");
    Ast.Commit_tx
  end
  else if eat_kw st "ROLLBACK" then begin
    if eat_kw st "TO" then begin
      ignore (eat_kw st "SAVEPOINT");
      Ast.Rollback_to (ident st)
    end
    else begin
      ignore (eat_kw st "WORK" || eat_kw st "TRANSACTION");
      Ast.Rollback_tx
    end
  end
  else if eat_kw st "SAVEPOINT" then Ast.Savepoint (ident st)
  else if eat_kw st "RELEASE" then begin
    ignore (eat_kw st "SAVEPOINT");
    Ast.Release_savepoint (ident st)
  end
  else if eat_kw st "COPY" then begin
    let table = ident st in
    let direction =
      if eat_kw st "TO" then `To
      else if eat_kw st "FROM" then `From
      else error st "expected TO or FROM"
    in
    match next st with
    | Token.String file -> (
      match direction with
      | `To -> Ast.Copy_to { table; file }
      | `From -> Ast.Copy_from { table; file })
    | _ -> error st "expected a quoted file name"
  end
  else if eat_kw st "SET" then begin
    match peek st with
    | Token.Ident s when kw_equal s "NOW" ->
      advance st;
      if eat_kw st "DEFAULT" then Ast.Set_now None
      else begin
        expect_sym st "=";
        Ast.Set_now (Some (parse_expr st))
      end
    | Token.Ident s when kw_equal s "TIMEOUT" ->
      (* SET TIMEOUT n — statement deadline in milliseconds; 0 or
         DEFAULT disables. The [=] is optional for symmetry with NOW. *)
      advance st;
      if eat_kw st "DEFAULT" then Ast.Set_timeout None
      else begin
        ignore (eat_sym st "=");
        match next st with
        | Token.Int n when n >= 0 -> Ast.Set_timeout (Some n)
        | _ -> error st "SET TIMEOUT expects a non-negative integer (ms)"
      end
    | _ -> error st "only SET NOW and SET TIMEOUT are supported"
  end
  else if eat_kw st "SHOW" then begin
    match peek st with
    | Token.Ident s when kw_equal s "TABLES" ->
      advance st;
      Ast.Show_tables
    | Token.Ident s when kw_equal s "METRICS" ->
      advance st;
      Ast.Stats (stats_like st)
    | _ -> error st "expected TABLES or METRICS"
  end
  else if eat_kw st "DESCRIBE" then Ast.Describe { table = ident st }
  else if eat_kw st "CHECKPOINT" then Ast.Checkpoint
  else if eat_kw st "BACKUP" then begin
    (* BACKUP TO 'dir' *)
    if not (eat_kw st "TO") then error st "expected TO";
    match next st with
    | Token.String dir -> Ast.Backup dir
    | _ -> error st "expected a quoted backup directory"
  end
  else if eat_kw st "PROMOTE" then Ast.Promote
  else if eat_kw st "ANALYZE" then begin
    (* ANALYZE [table] — statistics for one table, or every table *)
    match peek st with
    | Token.Ident _ -> Ast.Analyze (Some (ident st))
    | _ -> Ast.Analyze None
  end
  else if eat_kw st "STATS" then Ast.Stats (stats_like st)
  else error st "expected a statement"

(* Optional metric-name filter: STATS LIKE 'wal%'. *)
and stats_like st =
  if eat_kw st "LIKE" then begin
    match next st with
    | Token.String pat -> Some pat
    | _ -> error st "LIKE expects a string pattern"
  end
  else None

(* --- Entry points ------------------------------------------------------ *)

let tokenize sql =
  try Lexer.tokenize sql with Lexer.Error msg -> raise (Error msg)

let parse_with_tokens sql =
  let tokens = tokenize sql in
  let st = { tokens; pos = 0 } in
  let s = parse_statement st in
  ignore (eat_sym st ";");
  (match peek st with
  | Token.Eof -> ()
  | _ -> error st "trailing input after statement");
  (s, tokens)

let parse sql = fst (parse_with_tokens sql)

(* Parses a ';'-separated script; each statement keeps its own tokens,
   its closing ';' included. *)
let parse_script sql =
  let tokens = tokenize sql in
  let st = { tokens; pos = 0 } in
  let rec loop acc =
    if peek st = Token.Eof then List.rev acc
    else begin
      let first = st.pos in
      let s = parse_statement st in
      ignore (eat_sym st ";");
      loop ((s, Array.sub tokens first (st.pos - first)) :: acc)
    end
  in
  loop []
