(* Order statistics, bench-side spans and floor-subtracted timed loops. *)

let now = Unix.gettimeofday

let sorted xs = List.sort compare xs

(* Median of a non-empty list (mean of the middle pair for even counts);
   0 for an empty one. *)
let median xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s and n = List.length s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* Lower median of integer counts, so a count stays an integer. *)
let median_int xs =
  match List.sort compare xs with
  | [] -> 0
  | s -> List.nth s ((List.length s - 1) / 2)

let sum = List.fold_left ( +. ) 0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- spans ----------------------------------------------------------- *)

(* One timed call into a layer's public function, made from the bench.
   Spans of one answer share [answer]; [parent] is the enclosing span
   (-1 for an answer's root). *)
type span = {
  id : int;
  parent : int;
  answer : int;
  name : string;
  t0 : float;
  mutable t1 : float;
}

type spans = { mutable all : span list; mutable next : int; mutable open_ : span list }

let spans () = { all = []; next = 0; open_ = [] }

let span tr ~answer name f =
  let parent = match tr.open_ with s :: _ -> s.id | [] -> -1 in
  let s = { id = tr.next; parent; answer; name; t0 = now (); t1 = nan } in
  tr.next <- tr.next + 1;
  tr.open_ <- s :: tr.open_;
  let finish () =
    s.t1 <- now ();
    tr.open_ <- List.tl tr.open_;
    tr.all <- s :: tr.all
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* Self time per span name: a span's duration minus the part its child
   spans cover, summed over all spans of that name. *)
let self_times tr =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    tr.all;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let own = s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
      Hashtbl.replace self s.name
        (own +. Option.value (Hashtbl.find_opt self s.name) ~default:0.0))
    tr.all;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [])

let durations tr name =
  List.filter_map (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None) tr.all

let spans_json tr =
  let b = Buffer.create 65536 in
  Buffer.add_char b '[';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "{\"id\":%d,\"parent\":%d,\"answer\":%d,\"name\":%S,\"t0\":%.6f,\"dur_us\":%.3f}"
        s.id s.parent s.answer s.name s.t0 ((s.t1 -. s.t0) *. 1e6))
    (List.rev tr.all);
  Buffer.add_char b ']';
  Buffer.contents b

(* ---- timed loops ----------------------------------------------------- *)

let[@inline never] loop n (f : int -> unit) =
  for i = 0 to n - 1 do
    f i
  done

let time_loop n f =
  let t0 = now () in
  loop n f;
  now () -. t0

(* The empty loop: same closure call, no work. *)
let floor_s n = time_loop n (fun i -> ignore (Sys.opaque_identity i))

(* Nanoseconds per call of [f] over [n] calls with the empty-loop floor
   subtracted; the median of [reps] repetitions. *)
let per_call_ns ?(n = 1_000_000) ?(reps = 3) f =
  median
    (List.init reps (fun _ ->
         let floor = floor_s n in
         Float.max 0.0 ((time_loop n f -. floor) /. float_of_int n *. 1e9)))

(* ---- machine speed ----------------------------------------------------- *)

(* A shared host slows this machine down and speeds it up again by up to
   2x within a minute (see "Noise" in README.md), more than any bound a
   run-to-run comparison could use.  So each timed span is bracketed by a
   probe of fixed bench-side work, run while the program is idle: reads
   over a 2 MB buffer outside the OCaml heap at indices taken by integer
   division, the two things a walk step spends its time on (a bounded
   [Prng.int] draw divides; an index probe reads memory at random).  A
   span's time is reported scaled to the machine speed at which the probe
   takes [probe_nominal_s].  The probe runs none of the program's code, so
   a change to the program moves the scaled time as much as the raw
   one. *)
let probe_buf =
  lazy (Bigarray.Array1.init Bigarray.int Bigarray.c_layout 250_000 (fun i -> i))

let probe_reads = 200_000
let probe_nominal_s = 0.0024

(* Seconds the probe takes now. *)
let probe () =
  let b = Lazy.force probe_buf in
  let n = Bigarray.Array1.dim b in
  let t0 = now () in
  let s = ref 0 and x = ref 12345 in
  for _ = 1 to probe_reads do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    s := !s + Bigarray.Array1.unsafe_get b (!x mod n)
  done;
  ignore (Sys.opaque_identity !s);
  now () -. t0

(* [raw] seconds of a span that probes taking [before] and [after] seconds
   bracket, at nominal machine speed. *)
let at_nominal ~before ~after raw = raw *. probe_nominal_s *. 2.0 /. (before +. after)

(* [f ()] with its time at nominal speed, its raw time and the probe
   after it. *)
let scaled_span ~before f =
  let t0 = now () in
  let v = f () in
  let raw = now () -. t0 in
  let after = probe () in
  (v, at_nominal ~before ~after raw, raw, after)
