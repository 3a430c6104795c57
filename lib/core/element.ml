(* An [Element] is a set of periods — the paper's general tuple timestamp
   ("from January to April, and then from July to October").

   Representation: the list of periods exactly as written, possibly
   NOW-relative and possibly overlapping. Observation is always under a
   NOW binding: [ground] normalizes to a sorted list of disjoint,
   maximal ground periods (adjacent periods coalesce, since time is
   discrete), and every set operation is a linear two-pointer merge over
   normalized inputs. This is the "time linear in the number of periods"
   implementation claimed in Section 3 of the paper. *)

type t = Period.t list

let empty = []
let of_periods ps = ps
let of_period p = [ p ]
let of_ground_list gs = List.map Period.of_ground gs
let periods t = t
let add_period p t = t @ [ p ]

(* Raw period count, before normalization. *)
let raw_count t = List.length t

let is_now_relative t = List.exists Period.is_now_relative t

(* --- Normalization ------------------------------------------------- *)

(* Merges a sorted-by-start list of ground periods into disjoint maximal
   ones. Two closed periods coalesce when the later one starts no more
   than one chronon after the earlier one ends. *)
let sweep sorted =
  let flush (s, e) acc = (s, e) :: acc in
  let rec go current acc = function
    | [] -> List.rev (flush current acc)
    | (s, e) :: rest ->
      let cs, ce = current in
      if Chronon.compare s (Chronon.succ ce) <= 0 then
        go (cs, Chronon.max ce e) acc rest
      else go (s, e) (flush current acc) rest
  in
  match sorted with
  | [] -> []
  | first :: rest -> go first [] rest

let compare_ground (s1, _) (s2, _) = Chronon.compare s1 s2

(* Elements are usually written (and always produced) in start order, so
   probe the common case before paying for a sort; when one is needed,
   the in-place array sort beats [List.sort]'s allocation churn. *)
let rec sorted_asc = function
  | a :: (b :: _ as rest) -> compare_ground a b <= 0 && sorted_asc rest
  | [] | [ _ ] -> true

let ground ~now t =
  let bound = List.filter_map (Period.ground ~now) t in
  let sorted =
    if sorted_asc bound then bound
    else begin
      let arr = Array.of_list bound in
      Array.sort compare_ground arr;
      Array.to_list arr
    end
  in
  sweep sorted

let normalize ~now t = of_ground_list (ground ~now t)

let coalesce = normalize

(* In-place ascending sort of a.(lo .. hi-1), monomorphic so every
   comparison is an inline int compare: Hoare quicksort around the middle
   element, insertion sort below 16 elements. *)
let rec sort_ints (a : int array) lo hi =
  if hi - lo <= 16 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) and j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let p = a.(lo + ((hi - lo) / 2)) and i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while a.(!i) < p do incr i done;
      while a.(!j) > p do decr j done;
      if !i <= !j then begin
        let x = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- x;
        incr i;
        decr j
      end
    done;
    sort_ints a lo (!j + 1);
    sort_ints a !i hi
  end

(* Coverage of a set of periods depends only on the multisets of their
   starts and of their ends, so the two sort separately and one sweep
   with a depth counter recovers the union: a start no later than one
   chronon after the next pending end extends the open period. *)
let coalesce_bounds ~starts ~ends n =
  sort_ints starts 0 n;
  sort_ints ends 0 n;
  let out = ref [] and depth = ref 0 and opened = ref 0 and i = ref 0 in
  for j = 0 to n - 1 do
    while !i < n && starts.(!i) <= ends.(j) + 1 do
      if !depth = 0 then opened := starts.(!i);
      incr depth;
      incr i
    done;
    decr depth;
    if !depth = 0 then
      out :=
        Period.of_chronons (Chronon.of_unix_seconds !opened)
          (Chronon.of_unix_seconds ends.(j))
        :: !out
  done;
  List.rev !out

(* --- Ground-level set algebra (linear two-pointer merges) ---------- *)

let ground_union a b =
  (* Both inputs are sorted and disjoint; a plain merge keeps the result
     sorted, and one sweep restores disjointness. *)
  let rec merge a b acc =
    match a, b with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: ta, y :: tb ->
      if compare_ground x y <= 0 then merge ta b (x :: acc)
      else merge a tb (y :: acc)
  in
  sweep (merge a b [])

let ground_intersect a b =
  let rec go a b acc =
    match a, b with
    | [], _ | _, [] -> List.rev acc
    | (s1, e1) :: ta, (s2, e2) :: tb ->
      let s = Chronon.max s1 s2 and e = Chronon.min e1 e2 in
      let acc = if Chronon.compare s e <= 0 then (s, e) :: acc else acc in
      if Chronon.compare e1 e2 < 0 then go ta b acc else go a tb acc
  in
  go a b []

let ground_difference a b =
  let rec go a b acc =
    match a with
    | [] -> List.rev acc
    | (s1, e1) :: ta ->
      match b with
      | [] -> List.rev_append acc a
      | (s2, e2) :: tb ->
        if Chronon.compare e2 s1 < 0 then go a tb acc
        else if Chronon.compare e1 s2 < 0 then go ta b ((s1, e1) :: acc)
        else begin
          (* The two heads overlap; keep any prefix of the a-head before
             the b-head, then continue with whatever of the a-head
             extends past the b-head. *)
          let acc =
            if Chronon.compare s1 s2 < 0 then (s1, Chronon.pred s2) :: acc
            else acc
          in
          if Chronon.compare e1 e2 <= 0 then go ta b acc
          else go ((Chronon.succ e2, e1) :: ta) b acc
        end
  in
  go a b []

let ground_overlaps a b =
  let rec go a b =
    match a, b with
    | [], _ | _, [] -> false
    | (s1, e1) :: ta, (s2, e2) :: tb ->
      if Chronon.compare (Chronon.max s1 s2) (Chronon.min e1 e2) <= 0 then true
      else if Chronon.compare e1 e2 < 0 then go ta b
      else go a tb
  in
  go a b

(* a ⊇ b: every b-period lies inside a single a-period. Both inputs are
   normalized, so a linear walk suffices. *)
let ground_contains a b =
  let rec go a b =
    match b with
    | [] -> true
    | (s2, e2) :: tb ->
      match a with
      | [] -> false
      | (s1, e1) :: ta ->
        if Chronon.compare e1 s2 < 0 then go ta b
        else Chronon.compare s1 s2 <= 0 && Chronon.compare e2 e1 <= 0 && go a tb
  in
  go a b

let ground_complement ~within:(lo, hi) a =
  ground_difference [ (lo, hi) ] a

let ground_length gs =
  let add acc (s, e) = Span.add acc (Chronon.diff e s) in
  List.fold_left add Span.zero gs

(* --- Element-level API --------------------------------------------- *)

let union ~now a b = of_ground_list (ground_union (ground ~now a) (ground ~now b))
let intersect ~now a b =
  of_ground_list (ground_intersect (ground ~now a) (ground ~now b))
let difference ~now a b =
  of_ground_list (ground_difference (ground ~now a) (ground ~now b))
let complement ~now ~within t =
  match Period.ground ~now within with
  | None -> empty
  | Some g -> of_ground_list (ground_complement ~within:g (ground ~now t))

let overlaps ~now a b = ground_overlaps (ground ~now a) (ground ~now b)
let contains ~now a b = ground_contains (ground ~now a) (ground ~now b)

(* --- NOW-free overlap (the batch executor's per-row test) ----------- *)

type overlap = Hit | Miss | Not_finite

(* Raw instants are read through [:> int]: bit 0 is the NOW-relative
   tag, and two fixed instants compare like their chronons (see
   Instant). Empty (inverted) periods never match. *)
let rec meets_fixed s1 e1 = function
  | [] -> false
  | { Period.start_; end_ } :: rest ->
    let s2 = (start_ :> int) and e2 = (end_ :> int) in
    ((s2 lor e2) land 1 = 0 && s2 <= e2 && s1 <= e2 && s2 <= e1)
    || meets_fixed s1 e1 rest

let rec has_now_relative = function
  | [] -> false
  | { Period.start_; end_ } :: rest ->
    ((start_ :> int) lor (end_ :> int)) land 1 = 1 || has_now_relative rest

(* A hit between fixed periods holds under any NOW; a miss is final only
   when no period of either side has a NOW-relative endpoint. *)
let rec overlap_from ~relative a b =
  match a with
  | [] -> if relative || has_now_relative b then Not_finite else Miss
  | { Period.start_; end_ } :: rest ->
    let s1 = (start_ :> int) and e1 = (end_ :> int) in
    if (s1 lor e1) land 1 = 1 then overlap_from ~relative:true rest b
    else if s1 <= e1 && meets_fixed s1 e1 b then Hit
    else overlap_from ~relative rest b

let overlap a b = overlap_from ~relative:false a b

let contains_chronon ~now t c =
  List.exists (fun p -> Period.contains_chronon ~now p c) t

let contains_period ~now t p =
  match Period.ground ~now p with
  | None -> true
  | Some g -> ground_contains (ground ~now t) [ g ]

let is_empty ~now t = ground ~now t = []

(* Number of periods after normalization. *)
let count ~now t = List.length (ground ~now t)

let length ~now t = ground_length (ground ~now t)

let start ~now t =
  match ground ~now t with [] -> None | (s, _) :: _ -> Some s

let end_ ~now t =
  match ground ~now t with
  | [] -> None
  | gs -> let _, e = List.nth gs (List.length gs - 1) in Some e

let first ~now t =
  match ground ~now t with [] -> None | g :: _ -> Some (Period.of_ground g)

let last ~now t =
  match ground ~now t with
  | [] -> None
  | gs -> Some (Period.of_ground (List.nth gs (List.length gs - 1)))

(* Smallest single period covering the whole element. *)
let extent ~now t =
  match start ~now t, end_ ~now t with
  | Some s, Some e -> Some (Period.of_chronons s e)
  | _, _ -> None

let equal_at ~now a b =
  let ga = ground ~now a and gb = ground ~now b in
  List.length ga = List.length gb
  && List.for_all2
       (fun (s1, e1) (s2, e2) -> Chronon.equal s1 s2 && Chronon.equal e1 e2)
       ga gb

(* Structural equality of the written representation. *)
let equal a b =
  List.length a = List.length b && List.for_all2 Period.equal a b

let fold f init t = List.fold_left f init t
let iter f t = List.iter f t

let to_buffer b t =
  Buffer.add_char b '{';
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string b ", ";
      Period.to_buffer b p)
    t;
  Buffer.add_char b '}'

let to_string t =
  let b = Buffer.create 96 in
  to_buffer b t;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)

let scan s =
  Scan.expect_char s '{';
  Scan.skip_ws s;
  if Scan.eat_char s '}' then []
  else begin
    let rec loop acc =
      let p = Period.scan s in
      Scan.skip_ws s;
      if Scan.eat_char s ',' then begin
        Scan.skip_ws s;
        loop (p :: acc)
      end
      else begin
        Scan.expect_char s '}';
        List.rev (p :: acc)
      end
    in
    loop []
  end

let of_string str =
  try Some (Scan.parse_all scan str) with Scan.Parse_error _ -> None

let of_string_exn str = Scan.parse_all scan str
