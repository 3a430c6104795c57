(* Unit tests for the expression evaluator's pieces: operator semantics,
   LIKE, casts — below the SQL surface. *)

open Tip_storage
module E = Tip_engine.Expr_eval
module Ast = Tip_sql.Ast

let value = Alcotest.testable Value.pp Value.equal

let ext =
  lazy
    (let db = Tip_blade.Blade.create_database () in
     Tip_engine.Database.extension db)

let now = Tip_core.Chronon.of_ymd 1999 10 15

let binop op a b = E.apply_binop (Lazy.force ext) ~now op a b

let check_numeric_semantics () =
  Alcotest.check value "int + int" (Value.Int 3)
    (binop Ast.Add (Value.Int 1) (Value.Int 2));
  Alcotest.check value "int + float widens" (Value.Float 3.5)
    (binop Ast.Add (Value.Int 1) (Value.Float 2.5));
  Alcotest.check value "int / int truncates" (Value.Int 2)
    (binop Ast.Div (Value.Int 5) (Value.Int 2));
  Alcotest.check value "float / int divides" (Value.Float 2.5)
    (binop Ast.Div (Value.Float 5.) (Value.Int 2));
  Alcotest.check value "mod" (Value.Int 1)
    (binop Ast.Mod (Value.Int 7) (Value.Int 3));
  Alcotest.check value "null absorbs" Value.Null
    (binop Ast.Add Value.Null (Value.Int 1));
  Alcotest.check value "string concat" (Value.Str "ab")
    (binop Ast.Concat (Value.Str "a") (Value.Str "b"))

let check_comparison_semantics () =
  Alcotest.check value "int < float" (Value.Bool true)
    (binop Ast.Lt (Value.Int 1) (Value.Float 1.5));
  Alcotest.check value "string order" (Value.Bool true)
    (binop Ast.Le (Value.Str "abc") (Value.Str "abd"));
  Alcotest.check value "null comparison unknown" Value.Null
    (binop Ast.Eq Value.Null Value.Null);
  (* blade dispatch: chronon vs string via implicit casts *)
  Alcotest.check value "chronon < string literal" (Value.Bool true)
    (binop Ast.Lt
       (Tip_blade.Values.chronon (Tip_core.Chronon.of_ymd 1999 1 1))
       (Value.Str "1999-06-01"));
  (* date vs string is engine-native *)
  Alcotest.check value "date = string" (Value.Bool true)
    (binop Ast.Eq
       (Value.Date (Tip_core.Chronon.of_ymd 1999 1 1))
       (Value.Str "1999-01-01"));
  (match binop Ast.Lt (Value.Bool true) (Value.Int 1) with
  | exception E.Eval_error _ -> ()
  | v -> Alcotest.failf "bool < int must fail, got %s" (Value.to_display_string v))

let check_like () =
  let cases =
    [ ("abc", "abc", true);
      ("abc", "a%", true);
      ("abc", "%c", true);
      ("abc", "%b%", true);
      ("abc", "_b_", true);
      ("abc", "_", false);
      ("", "%", true);
      ("", "", true);
      ("abc", "", false);
      ("a%c", "a\\%c", false) (* no escape support: backslash is literal *);
      ("Dr.Pepper", "Dr.%", true);
      ("aaa", "%a%a%", true);
      ("ab", "b%", false) ]
  in
  List.iter
    (fun (text, pattern, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "%S LIKE %S" text pattern)
        expected
        (E.like_match ~pattern text))
    cases

(* The matcher LIKE used before patterns were compiled: memoized
   recursion over (pattern index, text index), a fresh table per call.
   Kept as the model the compiled matcher must agree with. *)
let like_reference ~pattern text =
  let np = String.length pattern and nt = String.length text in
  let memo = Hashtbl.create 16 in
  let rec go pi ti =
    match Hashtbl.find_opt memo (pi, ti) with
    | Some r -> r
    | None ->
      let r =
        if pi = np then ti = nt
        else begin
          match pattern.[pi] with
          | '%' -> go (pi + 1) ti || (ti < nt && go pi (ti + 1))
          | '_' -> ti < nt && go (pi + 1) (ti + 1)
          | c -> ti < nt && text.[ti] = c && go (pi + 1) (ti + 1)
        end
      in
      Hashtbl.replace memo (pi, ti) r;
      r
  in
  go 0 0

(* Small alphabets so wildcards, repeats and near-misses are common:
   patterns over a b % _, texts over a b. *)
let prop_like_matches_reference =
  let open QCheck in
  let gen =
    Gen.(
      pair
        (string_size ~gen:(oneofl [ 'a'; 'b'; '%'; '_' ]) (int_bound 8))
        (string_size ~gen:(oneofl [ 'a'; 'b' ]) (int_bound 10)))
  in
  Test.make ~name:"compiled LIKE = memoized reference" ~count:3000
    (make ~print:(fun (p, t) -> Printf.sprintf "%S LIKE %S" t p) gen)
    (fun (pattern, text) ->
      Bool.equal
        (E.like_compile pattern text)
        (like_reference ~pattern text))

let check_casts () =
  let ext = Lazy.force ext in
  let cast v ty = E.cast_value ext ~now v ~to_type:ty in
  Alcotest.check value "str to int" (Value.Int 42) (cast (Value.Str " 42 ") "INT");
  Alcotest.check value "float to int truncates" (Value.Int 1)
    (cast (Value.Float 1.9) "INT");
  Alcotest.check value "bool to int" (Value.Int 1) (cast (Value.Bool true) "INT");
  Alcotest.check value "int to char" (Value.Str "7") (cast (Value.Int 7) "CHAR");
  Alcotest.check value "str to date floors to midnight"
    (Value.Date (Tip_core.Chronon.of_ymd 1999 1 2))
    (cast (Value.Str "1999-01-02 10:00:00") "DATE");
  Alcotest.check value "null passes through" Value.Null (cast Value.Null "Element");
  Alcotest.check value "span to int via blade" (Value.Int 3600)
    (cast (Tip_blade.Values.span (Tip_core.Span.of_hours 1)) "INT");
  (match cast (Value.Bool true) "Element" with
  | exception E.Eval_error _ -> ()
  | _ -> Alcotest.fail "bool to element must fail")

let check_overload_resolution () =
  let ext = Lazy.force ext in
  let call name args = Tip_engine.Extension.apply_routine ext ~now ~name args in
  (* exact beats widening: abs(int) not abs(float) *)
  Alcotest.check value "abs int stays int" (Value.Int 2)
    (call "abs" [| Value.Int (-2) |]);
  (* widening when no exact match *)
  Alcotest.check value "sqrt of int widens" (Value.Float 2.)
    (call "sqrt" [| Value.Int 4 |]);
  (* exact match beats implicit cast: length(string) is the built-in
     string length, not the element length via the char->element cast *)
  Alcotest.check value "length(string) resolves to the string builtin"
    (Value.Int 26)
    (call "length" [| Value.Str "{[1999-01-01, 1999-01-31]}" |]);
  (* the blade overload fires for real elements *)
  Alcotest.check value "length(element) resolves to the blade routine"
    (Tip_blade.Values.span (Tip_core.Span.of_days 30))
    (call "length"
       [| Tip_blade.Values.element
            (Tip_core.Element.of_string_exn "{[1999-01-01, 1999-01-31]}") |]);
  (* two string literals are ambiguous between the Allen (period) and
     element overloads of overlaps: resolution must refuse, not guess *)
  (match
     call "overlaps"
       [| Value.Str "{[1999-01-01, 1999-06-30]}";
          Value.Str "{[1999-06-01, 1999-12-31]}" |]
   with
  | exception Tip_engine.Extension.Resolution_error _ -> ()
  | _ -> Alcotest.fail "ambiguous overloads must be refused");
  (* one typed argument breaks the tie through the cheaper cast chain *)
  Alcotest.check value "typed argument disambiguates" (Value.Bool true)
    (call "overlaps"
       [| Tip_blade.Values.element
            (Tip_core.Element.of_string_exn "{[1999-01-01, 1999-06-30]}");
          Value.Str "{[1999-06-01, 1999-12-31]}" |]);
  (* strictness: null in, null out, no evaluation *)
  Alcotest.check value "strict null" Value.Null
    (call "abs" [| Value.Null |]);
  (match call "nosuch_routine" [| Value.Int 1 |] with
  | exception Tip_engine.Extension.Resolution_error _ -> ()
  | _ -> Alcotest.fail "unknown routine must fail");
  (match call "abs" [| Value.Int 1; Value.Int 2 |] with
  | exception Tip_engine.Extension.Resolution_error _ -> ()
  | _ -> Alcotest.fail "wrong arity must fail")

let suite =
  [ Alcotest.test_case "numeric operator semantics" `Quick
      check_numeric_semantics;
    Alcotest.test_case "comparison semantics" `Quick check_comparison_semantics;
    Alcotest.test_case "LIKE matrix" `Quick check_like;
    QCheck_alcotest.to_alcotest prop_like_matches_reference;
    Alcotest.test_case "cast semantics" `Quick check_casts;
    Alcotest.test_case "overload resolution" `Quick check_overload_resolution ]
