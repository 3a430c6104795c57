(** B+tree secondary index: an ordered multimap from column values to
    row ids with exact lookups and clipped range scans.

    Keys are ordered by {!Value.compare}; a column therefore needs a
    NOW-independent order to be B+tree-indexable (NOW-relative types
    use interval indexes instead). Nodes are immutable arrays and
    inserts copy the root-to-leaf path. Deletion removes entries without
    rebalancing — the tree can fall below the fill factor but never
    loses ordering (the usual lazy-deletion compromise). *)

type rid = int

type t

val create : unit -> t

(** Number of (key, rid) entries, counting duplicates. *)
val entry_count : t -> int

(** (key, rid) pairs behave as a multiset: inserting the same pair twice
    stores it twice. *)
val insert : t -> Value.t -> rid -> unit

(** Removes one occurrence; returns whether it was present. *)
val remove : t -> Value.t -> rid -> bool

(** All rids under an exactly-equal key (most recent first). *)
val find : t -> Value.t -> rid list

type bound = Unbounded | Inclusive of Value.t | Exclusive of Value.t

(** Rids of every entry within the bounds, in key order. *)
val range : t -> lo:bound -> hi:bound -> rid list

val iter : t -> (Value.t -> rid -> unit) -> unit

(** Asserts key ordering and separator consistency; for tests. *)
val check_invariants : t -> unit
