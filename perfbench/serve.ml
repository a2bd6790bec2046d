(* serve_mix: a wjd daemon in its own process, driven over loopback by a
   closed loop of client threads. *)

open Measure
module Json = Wj_daemon.Json
module Http = Wj_daemon.Http

let clients = 2

(* ---- the daemon process ---------------------------------------------- *)

type daemon = { pid : int; url : string; out : in_channel }

let live : daemon list ref = ref []

let reap d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  close_in_noerr d.out;
  live := List.filter (fun x -> x.pid <> d.pid) !live

let () = at_exit (fun () -> List.iter reap !live)

(* Start [wjcli wjd] on an ephemeral loopback port and wait until it
   listens.  It generates the same TPC-H data the bench does: same SF,
   same seed. *)
let start ~wjcli ~access_log =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let args =
    [|
      wjcli; "wjd"; "--sf"; Printf.sprintf "%g" Workload.sf; "--seed"; string_of_int Workload.data_seed;
      "--port"; "0"; "--access-log"; access_log; "--time"; Printf.sprintf "%g" Workload.time_cap;
    |]
  in
  let pid = Unix.create_process wjcli args null w Unix.stderr in
  Unix.close w;
  Unix.close null;
  let out = Unix.in_channel_of_descr r in
  let prefix = "wjd listening on " in
  let rec wait_url () =
    match input_line out with
    | line when String.starts_with ~prefix line ->
      let rest = String.sub line (String.length prefix) (String.length line - String.length prefix) in
      List.hd (String.split_on_char ' ' rest)
    | _ -> wait_url ()
  in
  let d = { pid; url = ""; out } in
  live := d :: !live;
  match wait_url () with
  | url -> { d with url }
  | exception End_of_file ->
    reap d;
    failwith "wjd exited before listening"

let stop d =
  (try ignore (Http.fetch ~meth:"POST" (d.url ^ "/shutdown")) with _ -> ());
  (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
  close_in_noerr d.out;
  live := List.filter (fun x -> x.pid <> d.pid) !live

(* Prometheus exposition, summed per family name across label sets. *)
let scrape d =
  let body = (Http.fetch (d.url ^ "/metrics")).Http.resp_body in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then
        match String.rindex_opt line ' ' with
        | None -> ()
        | Some sp ->
          let key = String.sub line 0 sp in
          let name =
            match String.index_opt key '{' with Some b -> String.sub key 0 b | None -> key
          in
          let v = float_of_string_opt (String.sub line (sp + 1) (String.length line - sp - 1)) in
          Option.iter
            (fun v ->
              Hashtbl.replace tbl name (v +. Option.value (Hashtbl.find_opt tbl name) ~default:0.0))
            v)
    (String.split_on_char '\n' body);
  fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:0.0

(* ---- the request mix ------------------------------------------------- *)

let chain_count =
  Workload.stmt ~target:0.01 "chain_count" "COUNT(*)" Workload.chain

let chain_sum =
  Workload.stmt ~target:0.01 "chain_sum" "SUM(l_quantity)"
    "orders, lineitem WHERE o_orderkey = l_orderkey"

(* Looser than in walk_mem: here walking must stay a minority of answer time. *)
let q3 = Workload.q3 0.20
let q10 = Workload.q10 0.05

let exact =
  Workload.exact_stmt "exact" "SUM(o_totalprice)"
    "customer, orders WHERE c_custkey = o_custkey AND c_nationkey = 3"

let statements = [ chain_count; chain_sum; q3; q10; exact ]

(* wjd shares the indexes of the first statement it ever runs with every
   later one.  Set-up sends this statement, outside the mix, first, so no
   class of the mix gets its indexes for free. *)
let opening = Workload.exact_stmt "opening" "COUNT(*)" "region, nation WHERE r_regionkey = n_regionkey"
let repeated = [| chain_count; chain_sum; q3; q10 |]

type req = {
  idx : int;
  st : Workload.stmt;
  seed : int;
  traced : bool;
  use_cache : bool;
  sample : bool;  (** replayed in-process and compared bit for bit *)
}

(* Request [i] of the mix, fixed by the workload seed.  The lock-step
   loop sends slots 0-1, 2-3, 4-5 and 6-7 of every eight together.  Slot
   0 carries X-WJ-Trace and its partner, slot 1, is the same statement
   untraced, so the two latencies differ by tracing alone.  Slot 7 repeats
   one of four (statement, seed) pairs, which the estimate cache answers
   after their first run, beside the exact statement of slot 6, which
   bypasses the cache so it is executed: neither waits behind an index
   build.  The fast requests (exact, cache hits, chain_count) are 5/8 of
   the mix, so the median lies inside chain_count's latencies. *)
let request ~seed i =
  let slot = i mod 8 and round = i / 8 in
  let fresh st =
    {
      idx = i;
      st;
      seed = Workload.answer_seed ~seed i;
      traced = slot = 0;
      use_cache = true;
      sample = round mod 8 = 0 && slot <> 0;
    }
  in
  match slot with
  | 0 | 1 | 3 -> fresh chain_count
  | 2 -> fresh chain_sum
  | 4 -> fresh q3
  | 5 -> fresh q10
  | 6 -> { (fresh exact) with use_cache = false; sample = false }
  | _ ->
    let k = round mod Array.length repeated in
    {
      (fresh repeated.(k)) with
      seed = Hashtbl.hash (seed, k, "repeat");
      sample = false;
    }

(* Requests that run beside their traced or untraced twin: slots 0 and 1. *)
let trace_twin r = r.idx mod 8 < 2

let body r =
  Json.to_string
    (Json.Obj
       ([ ("sql", Json.Str r.st.sql); ("seed", Json.Int r.seed); ("cache", Json.Bool r.use_cache) ]
       @
       match r.st.target with
       | Some f -> [ ("target_pct", Json.Float (f *. 100.0)) ]
       | None -> []))

type wire = Online of { estimate : float; half_width : float; walks : int } | Exact of float

type resp = {
  req : req;
  latency : float;
  first_chunk : float option;
  chunks : int;
  cached : bool;
  wire : wire option;
  ok : bool;
  why : string;
}

let mem name j = Option.bind j (Json.member name)

let parse_final body =
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' body) in
  match List.rev lines with
  | last :: _ -> (
    let j = Some (Json.parse last) in
    let item = match Option.bind (mem "items" j) Json.to_list with Some (i :: _) -> Some i | _ -> None in
    let f name = Option.bind (mem name item) Json.to_float in
    let cached = Option.value (Option.bind (mem "cached" j) Json.to_bool) ~default:false in
    let reason = Option.bind (mem "reason" item) Json.to_str in
    match Option.bind (mem "kind" item) Json.to_str with
    | Some "online" -> (
      match (f "estimate", f "half_width", Option.bind (mem "walks" item) Json.to_int) with
      | Some estimate, Some half_width, Some walks ->
        (cached, reason, Some (Online { estimate; half_width; walks }))
      | _ -> (cached, reason, None))
    | Some "exact" -> (cached, reason, Option.map (fun v -> Exact v) (f "value"))
    | _ -> (cached, reason, None))
  | [] -> (false, None, None)

let check truths r (cached, reason, wire) =
  let truth = List.assoc r.st.name truths in
  match (wire, truth) with
  | Some (Online o), Workload.Scalar t ->
    if reason <> Some "target_reached" then (false, r.st.name ^ ": target not reached")
    else if not (Workload.close ~truth:t ~estimate:o.estimate ~half_width:o.half_width) then
      (false, Printf.sprintf "%s: estimate %.17g +/- %.17g vs truth %.17g" r.st.name o.estimate o.half_width t)
    else (true, "")
  | Some (Exact v), Workload.Scalar t ->
    if v = t then (true, "") else (false, Printf.sprintf "%s: exact %.17g vs %.17g" r.st.name v t)
  | _ -> (false, r.st.name ^ if cached then ": bad cached answer" else ": malformed answer")

let send ~url truths r =
  let headers = if r.traced then [ ("X-WJ-Trace", Printf.sprintf "bench-%d" r.idx) ] else [] in
  let t0 = now () in
  let first = ref None and chunks = ref 0 in
  let on_chunk _ =
    if !first = None then first := Some (now () -. t0);
    incr chunks
  in
  let fail why =
    { req = r; latency = now () -. t0; first_chunk = None; chunks = 0; cached = false; wire = None; ok = false; why }
  in
  match Http.fetch ~meth:"POST" ~req_headers:headers ~body:(body r) ~on_chunk (url ^ "/query") with
  | resp when resp.Http.status <> 200 ->
    fail (Printf.sprintf "%s: HTTP %d" r.st.name resp.Http.status)
  | resp -> (
    let latency = now () -. t0 in
    match parse_final resp.Http.resp_body with
    | (cached, _, wire) as final ->
      let ok, why = check truths r final in
      { req = r; latency; first_chunk = !first; chunks = !chunks; cached; wire; ok; why }
    | exception Json.Parse_error m -> fail (r.st.name ^ ": " ^ m))
  | exception e -> fail (r.st.name ^ ": " ^ Printexc.to_string e)

(* One lock-step batch: the [clients] requests [i], [i + 1], ... sent
   together, one per client; returns when all of them have their
   answers. *)
let batch ~url truths make i =
  let out = Array.make clients None in
  let client c () = out.(c) <- Some (send ~url truths (make (i + c))) in
  let threads = List.init (clients - 1) (fun c -> Thread.create (client (c + 1)) ()) in
  client 0 ();
  List.iter Thread.join threads;
  List.filter_map Fun.id (Array.to_list out)

(* The closed loop, in lock step: batch after batch, for [seconds] and at
   least [min_answers] answers, never past [max_seconds].  Lock step fixes
   which requests share the daemon, so how much they delay each other is
   fixed by the seed, not by the timing of earlier answers.  Between
   batches the daemon is idle: the bench probes the machine's speed there
   and scales a batch's timings by the probes around it (see
   [Measure.probe]).  Returns each response with its latency at nominal
   speed, and the timed phase at nominal speed and raw. *)
let closed_loop ~url ~seconds ~min_answers ~max_seconds truths make =
  let t0 = now () in
  let rec go i before acc scaled raw =
    let el = now () -. t0 in
    if (el >= seconds && i >= min_answers) || el >= max_seconds then (List.rev acc, scaled, raw)
    else begin
      let t = now () in
      let resps = batch ~url truths make i in
      let elapsed = now () -. t in
      let after = probe () in
      let at_nominal = at_nominal ~before ~after in
      go (i + clients) after
        (List.rev_append (List.map (fun r -> (r, at_nominal r.latency)) resps) acc)
        (scaled +. at_nominal elapsed) (raw +. elapsed)
    end
  in
  go 0 (probe ()) [] 0.0 0.0

(* Access-log lines written since [since]: (queue_wait_ms, quanta, walks, cache). *)
let access_log ~path ~since =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> (
      match Json.parse line with
      | j ->
        let f n = Option.bind (Json.member n j) Json.to_float in
        let i n = Option.bind (Json.member n j) Json.to_int in
        let s n = Option.bind (Json.member n j) Json.to_str in
        if Option.value (f "ts") ~default:0.0 >= since then
          go
            (( Option.value (f "queue_wait_ms") ~default:0.0,
               Option.value (i "quanta") ~default:0,
               Option.value (i "walks") ~default:0,
               Option.value (s "cache") ~default:"" )
            :: acc)
        else go acc
      | exception Json.Parse_error _ -> go acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []
