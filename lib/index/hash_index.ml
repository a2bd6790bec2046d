module Table = Wj_storage.Table

(* Flat CSR layout.  [slots] is an open-addressing table of (key, start,
   len) triples, linear probing over [2^bits] slots; a slot
   with [len = 0] is empty, so every int, [min_int] and [max_int]
   included, is a valid key.  A key's rows are [rows.(start) ..
   rows.(start + len - 1)], in ascending row order.  The table grows at
   half load, so its size follows the distinct keys, not the rows. *)
type t = {
  column : int;
  slots : int array; (* 3 * 2^bits *)
  bits : int;
  rows : int array;
  distinct : int;
  mutable probes : int; (* query lookups served since build/reset *)
}

(* Fibonacci hashing: the top [bits] of the key times 2^62 / phi (an odd
   constant), so keys that differ only in high bits or by a multiple of
   the capacity still spread. *)
let[@inline] home ~bits key = (key * 0x278DDE6E5FD29F05) lsr (63 - bits)

(* Offset in [slots] of [key]'s triple, or -1. *)
let find t key =
  let slots = t.slots and mask = (1 lsl t.bits) - 1 in
  let i = ref (home ~bits:t.bits key) and found = ref (-2) in
  while !found = -2 do
    let s = 3 * !i in
    if slots.(s + 2) = 0 then found := -1
    else if slots.(s) = key then found := s
    else i := (!i + 1) land mask
  done;
  !found

(* Offset in [slots] of [key]'s triple, claiming an empty one if absent. *)
let claim slots ~bits key =
  let mask = (1 lsl bits) - 1 in
  let i = ref (home ~bits key) and found = ref (-1) in
  while !found < 0 do
    let s = 3 * !i in
    if slots.(s + 2) = 0 then begin
      slots.(s) <- key;
      found := s
    end
    else if slots.(s) = key then found := s
    else i := (!i + 1) land mask
  done;
  !found

(* [slots] rehashed into a table of [2^bits] slots. *)
let rehash slots ~bits =
  let grown = Array.make (3 lsl bits) 0 in
  for s = 0 to (Array.length slots / 3) - 1 do
    let len = slots.((3 * s) + 2) in
    if len > 0 then grown.(claim grown ~bits slots.(3 * s) + 2) <- len
  done;
  grown

let build table ~column =
  let n = Table.length table in
  (* Typed column read: no Value.t is materialized during the build. *)
  let key = Table.int_reader table column in
  (* Pass 1: per-key row counts in [len], growing at half load. *)
  let bits = ref 4 in
  let slots = ref (Array.make (3 lsl !bits) 0) in
  let distinct = ref 0 in
  for row = 0 to n - 1 do
    if 2 * (!distinct + 1) > 1 lsl !bits then begin
      incr bits;
      slots := rehash !slots ~bits:!bits
    end;
    let slots = !slots in
    let s = claim slots ~bits:!bits (key row) in
    if slots.(s + 2) = 0 then incr distinct;
    slots.(s + 2) <- slots.(s + 2) + 1
  done;
  let slots = !slots and bits = !bits in
  let nslots = Array.length slots / 3 in
  (* Pass 2: lay the runs out back to back, then fill them in row order,
     with [start] as each run's fill cursor; pass 3 rewinds the cursors. *)
  let next = ref 0 in
  for s = 0 to nslots - 1 do
    slots.((3 * s) + 1) <- !next;
    next := !next + slots.((3 * s) + 2)
  done;
  let rows = Array.make n 0 in
  for row = 0 to n - 1 do
    let s = claim slots ~bits (key row) in
    rows.(slots.(s + 1)) <- row;
    slots.(s + 1) <- slots.(s + 1) + 1
  done;
  for s = 0 to nslots - 1 do
    slots.((3 * s) + 1) <- slots.((3 * s) + 1) - slots.((3 * s) + 2)
  done;
  { column; slots; bits; rows; distinct = !distinct; probes = 0 }

let table_column t = t.column

let count t key =
  t.probes <- t.probes + 1;
  let s = find t key in
  if s < 0 then 0 else t.slots.(s + 2)

let nth t key k =
  t.probes <- t.probes + 1;
  let s = find t key in
  if s < 0 then invalid_arg "Hash_index.nth: absent key";
  if k < 0 || k >= t.slots.(s + 2) then invalid_arg "Hash_index.nth: out of range";
  t.rows.(t.slots.(s + 1) + k)

let sample t prng key =
  t.probes <- t.probes + 1;
  let s = find t key in
  if s < 0 then None
  else Some t.rows.(t.slots.(s + 1) + Wj_util.Prng.int prng t.slots.(s + 2))

let iter_key t key f =
  t.probes <- t.probes + 1;
  let s = find t key in
  if s >= 0 then
    for i = t.slots.(s + 1) to t.slots.(s + 1) + t.slots.(s + 2) - 1 do
      f t.rows.(i)
    done

let probes t = t.probes
let reset_probes t = t.probes <- 0
let distinct_keys t = t.distinct
let total_entries t = Array.length t.rows
