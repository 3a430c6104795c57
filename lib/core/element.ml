(* An [Element] is a set of periods — the paper's general tuple timestamp
   ("from January to April, and then from July to October").

   Representation: one flat int array [|s0; e0; s1; e1; ...|] holding
   the raw encodings of the periods' instants (see Instant) exactly as
   written, possibly NOW-relative, overlapping or out of order. An
   element is one heap block: a scan reads its endpoints without
   following a pointer.

   Observation is always under a NOW binding: [view] yields the bound
   form, the sorted, disjoint, maximal ground periods in a second flat
   array [|s0; e0; ...|] of unix seconds (adjacent periods coalesce,
   since time is discrete), and every set operation is a linear
   two-pointer walk over bound forms. This is the "time linear in the
   number of periods" implementation claimed in Section 3 of the paper.
   An element that is already normalized — fixed, nonempty, sorted
   periods separated by gaps, as every result of the set algebra is — is
   its own bound form under every NOW, read in place, so it skips the
   sort-and-sweep. *)

type t = int array

let raw (i : Instant.t) = (i :> int)

let empty = [||]

let of_period (p : Period.t) = [| raw p.start_; raw p.end_ |]

let of_periods ps =
  let t = Array.make (2 * List.length ps) 0 in
  List.iteri
    (fun i (p : Period.t) ->
      t.(2 * i) <- raw p.start_;
      t.((2 * i) + 1) <- raw p.end_)
    ps;
  t

(* The raw fixed instant at [seconds] (its seconds shifted left one bit;
   see Instant), inline. Seconds outside the instant range are refused,
   as by [Instant.of_chronon]. *)
let encode seconds =
  if seconds < Instant.min_seconds || seconds > Instant.max_seconds then
    invalid_arg "Instant.of_chronon: out of range"
  else seconds lsl 1

let period_at t i =
  Period.of_instants
    (Instant.of_encoding t.(2 * i))
    (Instant.of_encoding t.((2 * i) + 1))

let raw_count t = Array.length t / 2
let periods t = List.init (raw_count t) (period_at t)
let add_period p t = Array.append t (of_period p)

let iter_bounds f t =
  for i = 0 to raw_count t - 1 do
    f (Instant.of_encoding t.(2 * i)) (Instant.of_encoding t.((2 * i) + 1))
  done

let rec relative_from t i =
  i < Array.length t && (t.(i) land 1 = 1 || relative_from t (i + 1))
let is_now_relative t = relative_from t 0

(* --- Bound form ------------------------------------------------------ *)

(* A raw instant's unix seconds under NOW (bit 0 is the NOW-relative
   tag; see Instant). *)
let bind now x = if x land 1 = 0 then x asr 1 else now + (x asr 1)

(* Is [t] normalized as written: every endpoint fixed, every period
   nonempty, and each period starting more than one chronon after the
   previous one ends? Such an element binds to itself under every NOW.
   The walks here are top-level functions so that they allocate no
   closure. *)
let rec normal_from t i prev_end =
  i >= Array.length t
  ||
  let s = t.(i) and e = t.(i + 1) in
  (s lor e) land 1 = 0
  && s <= e
  && s asr 1 > prev_end + 1
  && normal_from t (i + 2) (e asr 1)

let normal t =
  Array.length t = 0
  ||
  let s = t.(0) and e = t.(1) in
  (s lor e) land 1 = 0 && s <= e && normal_from t 2 (e asr 1)

(* In-place sort of the pairs (a.(i), b.(i)), lo <= i < hi, by [a],
   monomorphic so every comparison is an inline int compare: Hoare
   quicksort around the middle key, insertion sort up to 32 pairs, which
   a coalesced group's periods usually fit in (EXPERIMENTS.md E38). The
   insertion sort reads and writes only inside [lo, hi), which [sweep]
   keeps within both arrays: unchecked. *)
let rec sort_pairs (a : int array) (b : int array) lo hi =
  if hi - lo <= 32 then
    for i = lo + 1 to hi - 1 do
      let x = Array.unsafe_get a i and y = Array.unsafe_get b i and j = ref (i - 1) in
      while !j >= lo && Array.unsafe_get a !j > x do
        Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
        Array.unsafe_set b (!j + 1) (Array.unsafe_get b !j);
        decr j
      done;
      Array.unsafe_set a (!j + 1) x;
      Array.unsafe_set b (!j + 1) y
    done
  else begin
    let p = a.(lo + ((hi - lo) / 2)) and i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while a.(!i) < p do incr i done;
      while a.(!j) > p do decr j done;
      if !i <= !j then begin
        let x = a.(!i) and y = b.(!i) in
        a.(!i) <- a.(!j);
        b.(!i) <- b.(!j);
        a.(!j) <- x;
        b.(!j) <- y;
        incr i;
        decr j
      end
    done;
    sort_pairs a b lo (!j + 1);
    sort_pairs a b !i hi
  end

(* The union of the periods [starts.(i), ends.(i)]: one sort of the
   pairs by start, then one merge that extends the open period while
   the next starts no later than one chronon after its running maximum
   end. The merge runs in place: its [k]-th period overwrites pair [k],
   which it has already read. Returns the number of periods. *)
let sweep ~starts ~ends n =
  if n < 0 || n > Array.length starts || n > Array.length ends then
    invalid_arg "Element.coalesce_bounds: count out of range";
  sort_pairs starts ends 0 n;
  if n = 0 then 0
  else begin
    (* Branch-free: the open period [s, e] is written at [k] every step,
       and a gap (mask [m] all ones) keeps it by moving [k] on. *)
    let s = ref starts.(0) and e = ref ends.(0) and k = ref 0 in
    for i = 1 to n - 1 do
      let si = Array.unsafe_get starts i and ei = Array.unsafe_get ends i in
      let gap = Bool.to_int (si > !e + 1) in
      Array.unsafe_set starts !k !s;
      Array.unsafe_set ends !k !e;
      k := !k + gap;
      let m = -gap and d = ei - !e in
      s := si land m lor (!s land lnot m);
      e := ei land m lor ((!e + (d land lnot (d asr 62))) land lnot m)
    done;
    starts.(!k) <- !s;
    ends.(!k) <- !e;
    !k + 1
  end

(* The first [k] periods of [starts]/[ends] interleaved into an exact
   array of seconds, or of their encodings when [encoded]. *)
let pack ~encoded ~starts ~ends k =
  let out = Array.make (2 * k) 0 in
  for p = 0 to k - 1 do
    out.(2 * p) <- (if encoded then encode starts.(p) else starts.(p));
    out.((2 * p) + 1) <- (if encoded then encode ends.(p) else ends.(p))
  done;
  out

let bind_bounds ~now t ~starts ~ends at =
  let now = Chronon.to_unix_seconds now and k = ref at in
  for i = 0 to raw_count t - 1 do
    let s = bind now t.(2 * i) and e = bind now t.((2 * i) + 1) in
    if s <= e then begin
      starts.(!k) <- s;
      ends.(!k) <- e;
      incr k
    end
  done;
  !k

(* The bound form of a written element that is not [normal], under
   [now]: a fresh array of unix seconds. *)
let bind_sweep ~now t =
  let n = raw_count t in
  let starts = Array.make n 0 and ends = Array.make n 0 in
  let k = sweep ~starts ~ends (bind_bounds ~now t ~starts ~ends 0) in
  pack ~encoded:false ~starts ~ends k

(* A bound form as the set algebra reads it: word [i] is
   [g.(i) asr shift]. A normalized element is read in place, as its
   encodings (shift 1); any other is bound and swept into seconds
   (shift 0). *)
type view = { g : int array; shift : int }

let view ~now t =
  if normal t then { g = t; shift = 1 } else { g = bind_sweep ~now t; shift = 0 }

let seconds g = { g; shift = 0 }
let at v i = v.g.(i) asr v.shift
let words v = Array.length v.g
let chronon v i = Chronon.of_unix_seconds (at v i)

(* Encodes fresh bound seconds in place as the element they denote. *)
let of_bound g =
  for i = 0 to Array.length g - 1 do
    g.(i) <- encode g.(i)
  done;
  g

let normalize ~now t = if normal t then t else of_bound (bind_sweep ~now t)

let coalesce_bounds ~starts ~ends n =
  pack ~encoded:true ~starts ~ends (sweep ~starts ~ends n)

(* --- Bound-form set algebra (linear two-pointer merges) -------------- *)

(* Each walk reads two views and calls [emit s e] on the periods of its
   result, in order. [collect] runs a walk twice, first to count the
   periods and then to fill an array of exactly that size: a large
   result is allocated once, with no oversized buffer to trim. *)
let collect walk a b =
  let n = ref 0 in
  walk a b (fun _ _ -> n := !n + 2);
  let out = Array.make !n 0 and k = ref 0 in
  walk a b (fun s e ->
      out.(!k) <- s;
      out.(!k + 1) <- e;
      k := !k + 2);
  out

(* Merges the two inputs in start order, holding back the pending
   period [cs, ce] while the next one overlaps or abuts it. *)
let union_walk a b emit =
  let na = words a and nb = words b in
  let i = ref 0 and j = ref 0 and cs = ref 0 and ce = ref 0 and pending = ref false in
  let add s e =
    if !pending && s <= !ce + 1 then ce := Int.max !ce e
    else begin
      if !pending then emit !cs !ce;
      pending := true;
      cs := s;
      ce := e
    end
  in
  while !i < na || !j < nb do
    if !j >= nb || (!i < na && at a !i <= at b !j) then begin
      add (at a !i) (at a (!i + 1));
      i := !i + 2
    end
    else begin
      add (at b !j) (at b (!j + 1));
      j := !j + 2
    end
  done;
  if !pending then emit !cs !ce

let intersect_walk a b emit =
  let na = words a and nb = words b in
  let i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let e1 = at a (!i + 1) and e2 = at b (!j + 1) in
    let s = Int.max (at a !i) (at b !j) and e = Int.min e1 e2 in
    if s <= e then emit s e;
    if e1 < e2 then i := !i + 2 else j := !j + 2
  done

let difference_walk a b emit =
  let na = words a and nb = words b in
  (* [s1] is what is left of the start of a's current period once the
     b-periods before it have been cut away. *)
  let i = ref 0 and j = ref 0 and s1 = ref (if na > 0 then at a 0 else 0) in
  let next_a () =
    i := !i + 2;
    if !i < na then s1 := at a !i
  in
  while !i < na do
    let e1 = at a (!i + 1) in
    if !j >= nb then begin
      emit !s1 e1;
      next_a ()
    end
    else begin
      let s2 = at b !j and e2 = at b (!j + 1) in
      if e2 < !s1 then j := !j + 2
      else if e1 < s2 then begin
        emit !s1 e1;
        next_a ()
      end
      else begin
        (* The two overlap: keep any prefix of a's period before b's,
           then continue with whatever of it extends past b's. *)
        if !s1 < s2 then emit !s1 (s2 - 1);
        if e1 <= e2 then next_a () else s1 := e2 + 1
      end
    end
  done

let union_v = collect union_walk
let intersect_v = collect intersect_walk
let difference_v = collect difference_walk

let rec overlaps_from a b i j =
  i < words a
  && j < words b
  &&
  let e1 = at a (i + 1) and e2 = at b (j + 1) in
  Int.max (at a i) (at b j) <= Int.min e1 e2
  || if e1 < e2 then overlaps_from a b (i + 2) j else overlaps_from a b i (j + 2)

(* a ⊇ b: every b-period lies inside a single a-period. *)
let rec contains_from a b i j =
  j >= words b
  || i < words a
     &&
     let e1 = at a (i + 1) and s2 = at b j in
     if e1 < s2 then contains_from a b (i + 2) j
     else at a i <= s2 && at b (j + 1) <= e1 && contains_from a b i (j + 2)

let overlaps_v a b = overlaps_from a b 0 0
let contains_v a b = contains_from a b 0 0

let length_v v =
  let sum = ref 0 in
  for i = 0 to (words v / 2) - 1 do
    sum := !sum + (at v ((2 * i) + 1) - at v (2 * i))
  done;
  Span.of_seconds !sum

(* --- Ground lists ------------------------------------------------------ *)

let view_of_ground gs =
  let g = Array.make (2 * List.length gs) 0 in
  List.iteri
    (fun i (s, e) ->
      g.(2 * i) <- Chronon.to_unix_seconds s;
      g.((2 * i) + 1) <- Chronon.to_unix_seconds e)
    gs;
  seconds g

let ground_of_view v =
  List.init (words v / 2) (fun i -> (chronon v (2 * i), chronon v ((2 * i) + 1)))

let ground ~now t = ground_of_view (view ~now t)
let lift2 op a b = ground_of_view (seconds (op (view_of_ground a) (view_of_ground b)))
let ground_union = lift2 union_v
let ground_intersect = lift2 intersect_v
let ground_difference = lift2 difference_v
let ground_overlaps a b = overlaps_v (view_of_ground a) (view_of_ground b)
let ground_length gs = length_v (view_of_ground gs)

(* --- Element-level API --------------------------------------------- *)

let of_ground_list gs = of_bound (view_of_ground gs).g
let union ~now a b = of_bound (union_v (view ~now a) (view ~now b))
let intersect ~now a b = of_bound (intersect_v (view ~now a) (view ~now b))
let difference ~now a b = of_bound (difference_v (view ~now a) (view ~now b))

let complement ~now ~within t =
  match Period.ground ~now within with
  | None -> empty
  | Some g -> of_bound (difference_v (view_of_ground [ g ]) (view ~now t))

(* --- NOW-free overlap (the batch executor's per-row test) ----------- *)

type overlap = Hit | Miss | Not_finite

(* Raw instants: bit 0 is the NOW-relative tag, and two fixed instants
   compare like their chronons (see Instant). [a] against one fixed,
   nonempty period [lo, hi], without a branch per period: a fixed period
   [s, e] hits when e - s, hi - s and e - lo are all nonnegative, so
   [acc] keeps a clear sign bit once one does (a NOW-relative period adds
   -1, which never clears it). *)
let overlap_one a lo hi =
  let acc = ref (-1) and tags = ref 0 in
  for i = 0 to (Array.length a / 2) - 1 do
    let s = a.(2 * i) and e = a.((2 * i) + 1) in
    let tag = (s lor e) land 1 in
    acc := !acc land ((e - s) lor (hi - s) lor (e - lo) lor -tag);
    tags := !tags lor tag
  done;
  if !acc >= 0 then Hit else if !tags = 1 then Not_finite else Miss

(* [a] against each fixed, nonempty period of [b]. A hit between fixed
   periods holds under any NOW; a miss is final only when no period of
   either side has a NOW-relative endpoint. Empty (inverted) periods
   never match. *)
let rec overlap_from a b j answer =
  if j >= Array.length b then answer
  else
    let lo = b.(j) and hi = b.(j + 1) in
    if (lo lor hi) land 1 = 1 then overlap_from a b (j + 2) Not_finite
    else if lo > hi then overlap_from a b (j + 2) answer
    else
      match overlap_one a lo hi with
      | Hit -> Hit
      | Not_finite -> overlap_from a b (j + 2) Not_finite
      | Miss -> overlap_from a b (j + 2) answer

let overlap a b = overlap_from a b 0 Miss

let overlaps ~now a b =
  match overlap a b with
  | Hit -> true
  | Miss -> false
  | Not_finite -> overlaps_v (view ~now a) (view ~now b)

let contains ~now a b = contains_v (view ~now a) (view ~now b)

(* --- Observations ---------------------------------------------------- *)

let contains_chronon ~now t c =
  let c = Chronon.to_unix_seconds c in
  contains_v (view ~now t) (seconds [| c; c |])

let contains_period ~now t p =
  match Period.ground ~now p with
  | None -> true
  | Some g -> contains_v (view ~now t) (view_of_ground [ g ])

let is_empty ~now t = words (view ~now t) = 0
let count ~now t = words (view ~now t) / 2
let length ~now t = length_v (view ~now t)

(* [t]'s bound form and its word count; [None] for an empty element. *)
let ends ~now t =
  let v = view ~now t in
  let n = words v in
  if n = 0 then None else Some (v, n)

let start ~now t = Option.map (fun (v, _) -> chronon v 0) (ends ~now t)
let end_ ~now t = Option.map (fun (v, n) -> chronon v (n - 1)) (ends ~now t)
let period v i j = Period.of_chronons (chronon v i) (chronon v j)
let first ~now t = Option.map (fun (v, _) -> period v 0 1) (ends ~now t)
let last ~now t = Option.map (fun (v, n) -> period v (n - 2) (n - 1)) (ends ~now t)

(* Smallest single period covering the whole element. *)
let extent ~now t = Option.map (fun (v, n) -> period v 0 (n - 1)) (ends ~now t)

let equal_at ~now a b =
  let va = view ~now a and vb = view ~now b in
  let rec same i = i >= words va || (at va i = at vb i && same (i + 1)) in
  words va = words vb && same 0

(* Structural equality of the written representation. *)
let equal (a : t) b = Array.length a = Array.length b && Array.for_all2 Int.equal a b

(* --- Text -------------------------------------------------------------- *)

(* One pass over the raw endpoints: a fixed one is printed as its date
   straight from its seconds, a NOW-relative one by Instant. *)
let to_buffer b t =
  Buffer.add_char b '{';
  for i = 0 to Array.length t - 1 do
    let x = t.(i) in
    if i land 1 = 0 then Buffer.add_string b (if i = 0 then "[" else ", [")
    else Buffer.add_string b ", ";
    if x land 1 = 0 then Civil.add_date b (x asr 1)
    else Instant.to_buffer b (Instant.of_encoding x);
    if i land 1 = 1 then Buffer.add_char b ']'
  done;
  Buffer.add_char b '}'

let to_string t =
  let b = Buffer.create 96 in
  to_buffer b t;
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)

let of_string_exn = Scan.element

let of_string str =
  try Some (of_string_exn str) with Scan.Parse_error _ -> None
