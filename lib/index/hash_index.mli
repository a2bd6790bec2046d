(** Secondary hash index: integer join key -> row ids.

    This is the index the random walk leans on for equality joins: one probe
    gives the neighbour count [d_j(t)] in O(1), and the walk then picks the
    k-th neighbour uniformly, also in O(1) — exactly the cost model of
    §3.7 ("the whole algorithm takes O(kn) time, assuming hash tables are
    used as indexes").

    Layout (CSR, built once): every key's row ids sit contiguously, in
    ascending order, in one flat [rows] array; an open-addressing [int
    array] of (key, start, len) triples, linear probing at most half
    full, maps a key to its run.  A lookup is a multiplicative hash and a
    short scan of that array: no allocation, no closure, no per-key
    container. *)

type t

val build : Wj_storage.Table.t -> column:int -> t
(** Scan [table] and index the integer values of [column].
    Raises if a cell in the column is not [Int]. *)

val table_column : t -> int
(** The column this index was built on. *)

val count : t -> int -> int
(** Number of rows whose key equals the argument. *)

val nth : t -> int -> int -> int
(** [nth t key k] is the row id of the k-th (0-based) row matching [key],
    in ascending row-id order; raises [Invalid_argument] when the key is
    absent or [k] is out of range. *)

val sample : t -> Wj_util.Prng.t -> int -> int option
(** Uniformly random matching row id, or [None] when the key is absent. *)

val iter_key : t -> int -> (int -> unit) -> unit
(** Matching row ids in ascending order. *)

val probes : t -> int
(** Number of query lookups ([count]/[nth]/[sample]/[iter_key]) served
    since the build or the last {!reset_probes}.  An always-on plain-int
    counter (one store per lookup); approximate under multicore races. *)

val reset_probes : t -> unit

val distinct_keys : t -> int
val total_entries : t -> int
