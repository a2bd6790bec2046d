(* The time-to-answer benchmark.  See README.md in this directory.

   wjbench --workload walk_mem|walk_paged|serve_mix --seed N --seconds S
           --trace 0|1 --work-dir DIR [--wjcli PATH] [--commit SHA]

   Prints one line per metric (name, value, unit), a "# meta" line and, as
   the last line, {"correct", "attempted", "failed", "metrics"}.  Exits 1
   when any answer failed or was wrong. *)

open Measure
module W = Workload
module Engine = Wj_sql.Engine
module Pool = Wj_storage.Buffer_pool

let setup_reps = 3
let min_answers = 100

(* serve_mix answers ~30 requests a second; a longer prefix of them gives
   every class enough answers for a steady median. *)
let serve_min_answers = 400

(* Deterministic counts are taken over a fixed prefix of answers, which
   every run completes. *)
let count_prefix = 50

(* No run's timed phase goes past this, whatever --seconds says. *)
let max_timed_s = 120.0

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  work_dir : string;
  wjcli : string;
  commit : string;
}

let parse_args () =
  let get name default =
    let rec find = function
      | k :: v :: _ when k = "--" ^ name -> v
      | _ :: rest -> find rest
      | [] -> (
        match default with Some d -> d | None -> failwith ("missing --" ^ name))
    in
    find (List.tl (Array.to_list Sys.argv))
  in
  {
    workload = get "workload" None;
    seed = int_of_string (get "seed" None);
    seconds = float_of_string (get "seconds" None);
    trace = get "trace" (Some "0") = "1";
    work_dir = get "work-dir" None;
    wjcli = get "wjcli" (Some "");
    commit = get "commit" (Some "unknown");
  }

(* ---- output ---------------------------------------------------------- *)

type metric = { name : string; value : Wj_daemon.Json.t; unit_ : string }

let f name unit_ v = { name; value = Wj_daemon.Json.Float v; unit_ }
let i name unit_ v = { name; value = Wj_daemon.Json.Int v; unit_ }

let emit ~meta ~attempted ~failed ~why metrics =
  let open Wj_daemon.Json in
  List.iter prerr_endline why;
  List.iter
    (fun m ->
      let v = match m.value with Int n -> string_of_int n | Float x -> Printf.sprintf "%.6g" x | _ -> "?" in
      Printf.printf "%-30s %16s %s\n" m.name v m.unit_)
    metrics;
  Printf.printf "# meta %s\n" (to_string (Obj meta));
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool (failed = 0));
            ("attempted", Int attempted);
            ("failed", Int failed);
            ( "metrics",
              Obj
                (List.map
                   (fun m -> (m.name, Obj [ ("value", m.value); ("unit", Str m.unit_) ]))
                   metrics) );
          ]))

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let heap_mb words = float_of_int words *. float_of_int (Sys.word_size / 8) /. 1e6

(* ---- answers --------------------------------------------------------- *)

type answer = {
  cls : string;
  latency : float;  (** at nominal machine speed, see [Measure.probe] *)
  raw : float;  (** as the clock read it *)
  verdict : W.verdict;
  traced : Layers.traced option;
}

let timed_loop ~seconds ~min_answers body =
  let t0 = now () in
  let n = ref 0 in
  while
    let el = now () -. t0 in
    (el < seconds || !n < min_answers) && el < max_timed_s
  do
    body !n;
    incr n
  done

(* ---- walk_mem / walk_paged --------------------------------------------- *)

type inproc = {
  catalog : Wj_storage.Catalog.t;
  cycle : W.stmt list;
  truths : (string * W.truth) list;
  exact_s : float list;  (** ground-truth execution times *)
  pool : Pool.t option;
  pool_pages : int;
}

let total_pages catalog =
  let rpp = Wj_storage.Segment.default_rows_per_page in
  List.fold_left
    (fun acc t ->
      acc
      + Wj_storage.Schema.arity (Wj_storage.Table.schema t)
        * ((Wj_storage.Table.length t + rpp - 1) / rpp))
    0
    (Wj_storage.Catalog.tables catalog)

let setup_inproc a ~paged rep =
  let cycle = if paged then W.walk_paged_cycle else W.walk_mem_cycle in
  let catalog = W.catalog ~triangle:(not paged) in
  let truths, exact_s =
    List.split
      (List.map
         (fun (st : W.stmt) ->
           let t0 = now () in
           let t = W.truth catalog st in
           ((st.name, t), now () -. t0))
         cycle)
  in
  let catalog, pool, pool_pages =
    if not paged then (catalog, None, 0)
    else begin
      (* About a tenth of the data's pages: the working set does not fit. *)
      let pool_pages = total_pages catalog / 10 in
      let dir = Filename.concat a.work_dir (Printf.sprintf "segments-%d" rep) in
      rm_rf dir;
      let c, pool =
        Wj_storage.Backend.prepare_catalog (Wj_storage.Backend.paged ~dir ~pool_pages ()) catalog
      in
      (c, pool, pool_pages)
    end
  in
  List.iteri
    (fun k (st : W.stmt) ->
      ignore
        (Engine.execute_session
           (Wj_core.Run_config.make ~seed:(-1 - k) ~max_walks:2000 ~max_time:W.time_cap ())
           catalog st.sql))
    cycle;
  { catalog; cycle; truths; exact_s; pool; pool_pages }

(* Run [setup] [setup_reps] times; keep the last state, report the median
   time at nominal speed and the median raw time.  Each earlier state is
   released before the next set-up starts. *)
let repeated_setup setup discard =
  let state = ref None in
  let times =
    List.init setup_reps (fun rep ->
        Option.iter discard !state;
        state := None;
        Gc.compact ();
        let s, scaled, raw, _ = scaled_span ~before:(probe ()) (fun () -> setup rep) in
        state := Some s;
        (scaled, raw))
  in
  (Option.get !state, median (List.map fst times), median (List.map snd times))

let take n xs = List.filteri (fun i _ -> i < n) xs

(* Per statement class: answers, median latency, median walks. *)
let print_classes answers =
  let classes = List.sort_uniq compare (List.map (fun a -> a.cls) answers) in
  List.iter
    (fun c ->
      let xs = List.filter (fun a -> a.cls = c) answers in
      Printf.printf "# class %-12s answers %4d  p50 %.4f s  walks %d\n" c (List.length xs)
        (median (List.map (fun a -> a.latency) xs))
        (median_int (List.map (fun a -> a.verdict.W.walks) xs)))
    classes

(* Mean over the statement classes that stop on a CI target of each
   class's median walks, over the first [prefix] answers (which every run
   completes): fixed by the seed. *)
let walks_per_answer ~prefix ~targeted answers =
  let first = take prefix answers in
  let classes = List.sort_uniq compare (List.map (fun a -> a.cls) first) in
  let meds =
    List.filter_map
      (fun c ->
        if not (targeted c) then None
        else
          Some
            (median_int
               (List.filter_map (fun a -> if a.cls = c then Some a.verdict.W.walks else None) first)))
      classes
  in
  List.fold_left ( + ) 0 meds / max 1 (List.length meds)

let targeted stmts cls =
  List.exists (fun (st : W.stmt) -> st.name = cls && st.target <> None) stmts

(* The plan each class's first traced answer chose. *)
let first_plans stmts traced =
  List.filter_map
    (fun (st : W.stmt) ->
      List.find_map
        (fun (cls, (t : Layers.traced)) -> if cls = st.name then t.plan else None)
        traced
      |> Option.map (fun p -> (st.name, p)))
    stmts

(* [elapsed] and [setup_s] are at nominal speed; [raw] is the timed
   phase's and the set-up's time as the clock read them. *)
let end_to_end ~setup_s ~elapsed ~raw:(raw_elapsed, raw_setup) ~answers ~walks_total
    ~walks_per_answer ~heap =
  let lat = List.map (fun a -> a.latency) answers in
  let n = List.length answers in
  let ok = List.length (List.filter (fun a -> a.verdict.W.ok) answers) in
  let raw = List.map (fun a -> a.raw) answers in
  Printf.printf
    "# raw answer_p50_s %.6g answer_p90_s %.6g answers_per_s %.6g walks_per_s %.6g setup_s %.6g \
     (the timed phase takes %.3f x as long at nominal speed)\n"
    (median raw) (percentile 0.9 raw)
    (float_of_int n /. raw_elapsed)
    (float_of_int walks_total /. raw_elapsed)
    raw_setup (ratio elapsed raw_elapsed);
  [
    f "answer_p50_s" "s" (median lat);
    f "answer_p90_s" "s" (percentile 0.9 lat);
    f "answers_per_s" "1/s" (float_of_int n /. elapsed);
    f "walks_per_s" "1/s" (float_of_int walks_total /. elapsed);
    i "walks_per_answer" "walks" walks_per_answer;
    f "ok_share" "ratio" (float_of_int ok /. float_of_int n);
    f "peak_heap_mb" "MB" heap;
    f "setup_s" "s" setup_s;
  ]

(* Walker phase costs over one plan per statement class. *)
let walker_metrics ~seed plans =
  let costs = List.map (fun (cls, p) -> (cls, Layers.walker_cost ~seed ~n:200_000 p)) plans in
  let tot g = sum (List.map (fun (_, c) -> g c) costs) in
  let walks = tot (fun c -> float_of_int c.Layers.walks) in
  let steps = tot (fun c -> float_of_int c.Layers.steps) in
  ( costs,
    [
      f "walker.ns_per_walk" "ns" (ratio (tot (fun c -> c.walk_s)) walks *. 1e9);
      f "walker.start_ns" "ns" (ratio (tot (fun c -> c.start_s)) walks *. 1e9);
      f "walker.step_ns" "ns" (ratio (tot (fun c -> c.phase_s -. c.start_s)) steps *. 1e9);
      f "walker.success_ratio" "ratio" (ratio (tot (fun c -> float_of_int c.successes)) walks);
      f "walker.minor_words_per_walk" "words" (ratio (tot (fun c -> c.minor_words)) walks);
    ] )

(* The traced run's spans, self times and walker costs, for reading later. *)
let write_trace a tr costs =
  write_file
    (Filename.concat a.work_dir (Printf.sprintf "trace-%s-%d.json" a.workload a.seed))
    (Printf.sprintf "{\"self_s\":{%s},\"walker\":{%s},\"spans\":%s}\n"
       (String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%S:%.6f" k v) (self_times tr)))
       (String.concat ","
          (List.map
             (fun (cls, (c : Layers.walker_cost)) ->
               Printf.sprintf
                 "%S:{\"ns_per_walk\":%.2f,\"success_ratio\":%.6f,\"minor_words_per_walk\":%.3f}"
                 cls (c.walk_s /. float_of_int c.walks *. 1e9)
                 (float_of_int c.successes /. float_of_int c.walks)
                 (c.minor_words /. float_of_int c.walks))
             costs))
       (spans_json tr))

(* Figures every traced run reports the same way, whatever the workload. *)
let single_call_metrics ~seed =
  let orders = Wj_storage.Catalog.table_exn (W.catalog ~triangle:false) "orders" in
  let hash, btree, trie = Layers.probe_ns ~seed orders in
  let enc, dec = Layers.json_us () in
  [
    f "index.hash_probe_ns" "ns" hash;
    f "index.btree_probe_ns" "ns" btree;
    f "index.trie_probe_ns" "ns" trie;
    f "prng.draw_ns" "ns" (Layers.prng_draw_ns ~seed);
    f "stats.add_ns" "ns" (Layers.stats_add_ns ~seed);
    f "json.encode_us" "us" enc;
    f "json.decode_us" "us" dec;
  ]

(* sql / registry / optimizer / index counts over traced answers. *)
let answer_layer_metrics tr traced =
  let first = take count_prefix traced in
  let scalar = List.filter (fun (t : Layers.traced) -> t.plan <> None) first in
  let ms name = median (durations tr name) *. 1e3 in
  [
    f "sql.parse_us" "us" (ms "sql.parse" *. 1e3);
    f "sql.bind_us" "us" (ms "sql.bind" *. 1e3);
    f "registry.build_ms" "ms" (ms "registry.build");
    i "registry.entries" "entries" (median_int (List.map (fun (t : Layers.traced) -> t.entries) first));
    f "optimizer.ms" "ms"
      (median
         (List.filter_map
            (fun (t : Layers.traced) -> if t.plan <> None then Some (t.optimizer_s *. 1e3) else None)
            traced));
    i "optimizer.trial_walks" "walks"
      (median_int (List.map (fun (t : Layers.traced) -> t.trial_walks) scalar));
    f "index.probes_per_walk" "probes"
      (ratio
         (float_of_int (List.fold_left (fun acc (t : Layers.traced) -> acc + t.probes) 0 scalar))
         (float_of_int
            (List.fold_left (fun acc (t : Layers.traced) -> acc + t.verdict.W.walks) 0 scalar)));
  ]

(* Traced answers over untraced ones of the same class: the bench's own
   span overhead. *)
let overhead_ratio pairs =
  let classes = List.sort_uniq compare (List.map (fun (c, _, _) -> c) pairs) in
  median
    (List.filter_map
       (fun c ->
         let pick t = List.filter_map (fun (c', tr, l) -> if c' = c && tr = t then Some l else None) pairs in
         match (pick true, pick false) with
         | [], _ | _, [] -> None
         | tr, un -> Some (ratio (median tr) (median un)))
       classes)

let not_served = [
  f "sched.queue_wait_p50_ms" "ms" 0.0;
  f "sched.quanta_per_answer" "quanta" 0.0;
  f "http.first_chunk_ms" "ms" 0.0;
  f "http.chunks_per_answer" "chunks" 0.0;
  f "cache.hit_ratio" "ratio" 0.0;
  f "cache.hit_us" "us" 0.0;
  f "trace.overhead_ratio" "ratio" 0.0;
]

let run_inproc a ~paged =
  let s, setup_s, raw_setup = repeated_setup (setup_inproc a ~paged) (fun _ -> ()) in
  let n = List.length s.cycle in
  let stmt k = List.nth s.cycle (k mod n) in
  Option.iter Pool.reset_stats s.pool;
  let tr = spans () in
  let answers = ref [] in
  (* A traced run alternates untraced and traced cycles of statements. *)
  let traced_cycle k = a.trace && k / n mod 2 = 1 in
  let last_probe = ref (probe ()) in
  timed_loop ~seconds:a.seconds ~min_answers (fun k ->
      let st = stmt k in
      let truth = List.assoc st.name s.truths in
      let seed = W.answer_seed ~seed:a.seed k in
      let (verdict, traced), latency, raw, after =
        scaled_span ~before:!last_probe (fun () ->
            try
              if traced_cycle k then
                let t = Layers.traced_answer tr ~answer:k s.catalog st truth ~seed in
                (t.verdict, Some t)
              else
                (W.check st truth (Engine.execute_session (W.config st ~seed) s.catalog st.sql), None)
            with e -> ({ W.walks = 0; ok = false; why = st.name ^ ": " ^ Printexc.to_string e }, None))
      in
      last_probe := after;
      answers := { cls = st.name; latency; raw; verdict; traced } :: !answers);
  let answers = List.rev !answers in
  print_classes answers;
  let walks_total = List.fold_left (fun acc x -> acc + x.verdict.W.walks) 0 answers in
  let heap = heap_mb (Gc.quick_stat ()).Gc.top_heap_words in
  let metrics =
    if not a.trace then
      end_to_end ~setup_s
        ~elapsed:(sum (List.map (fun x -> x.latency) answers))
        ~raw:(sum (List.map (fun x -> x.raw) answers), raw_setup)
        ~answers ~walks_total
        ~walks_per_answer:
          (walks_per_answer answers ~prefix:min_answers ~targeted:(targeted s.cycle))
        ~heap
    else begin
      let traced = List.filter_map (fun x -> x.traced) answers in
      let plans =
        first_plans s.cycle (List.filter_map (fun x -> Option.map (fun t -> (x.cls, t)) x.traced) answers)
      in
      let hits, misses =
        match s.pool with Some p -> (Pool.hits p, Pool.misses p) | None -> (1, 0)
      in
      let session = sum (List.map (fun (t : Layers.traced) -> t.session_s) traced) in
      let traced_lat = sum (List.filter_map (fun x -> Option.map (fun _ -> x.raw) x.traced) answers) in
      let costs, walker = walker_metrics ~seed:a.seed plans in
      write_trace a tr costs;
      answer_layer_metrics tr traced
      @ walker
      @ [
          f "walker.answer_share" "ratio" (ratio session traced_lat);
          f "exact.ms" "ms" (median s.exact_s *. 1e3);
          f "pager.hit_ratio" "ratio" (ratio (float_of_int hits) (float_of_int (hits + misses)));
          f "pager.misses_per_walk" "misses" (ratio (float_of_int misses) (float_of_int walks_total));
          f "bench.span_overhead_ratio" "ratio"
            (overhead_ratio (List.map (fun x -> (x.cls, x.traced <> None, x.raw)) answers));
        ]
      @ not_served @ single_call_metrics ~seed:a.seed
    end
  in
  let failed = List.filter (fun x -> not x.verdict.W.ok) answers in
  ( metrics,
    List.length answers,
    List.map (fun x -> x.verdict.W.why) failed,
    [ ("pool_pages", Wj_daemon.Json.Int s.pool_pages); ("clients", Wj_daemon.Json.Int 0) ] )

(* ---- serve_mix ------------------------------------------------------- *)

type served = {
  daemon : Serve.daemon;
  s_catalog : Wj_storage.Catalog.t;
  s_truths : (string * W.truth) list;
  log : string;
  heap_words : float;  (** the daemon's gc.heap_words once set up *)
}

let setup_serve a rep =
  let log = Filename.concat a.work_dir (Printf.sprintf "access-%d.jsonl" rep) in
  rm_rf log;
  let daemon = Serve.start ~wjcli:a.wjcli ~access_log:log in
  let catalog = W.catalog ~triangle:false in
  let warm = Serve.opening :: Serve.statements in
  let truths = List.map (fun (st : W.stmt) -> (st.name, W.truth catalog st)) warm in
  List.iteri
    (fun k st ->
      ignore
        (Serve.send ~url:daemon.Serve.url truths
           { Serve.idx = -1 - k; st; seed = -1 - k; traced = false; use_cache = false; sample = false }))
    warm;
  { daemon; s_catalog = catalog; s_truths = truths; log; heap_words = Serve.scrape daemon "wj_gc_heap_words" }

(* The daemon's answer must be the in-process one, bit for bit. *)
let replay_check s (r : Serve.resp) =
  let st = r.req.Serve.st in
  match (r.wire, Engine.execute_session (W.config st ~seed:r.req.seed) s.s_catalog st.sql) with
  | Some (Serve.Online w), { Engine.items = [ (_, Engine.Online_scalar o) ]; _ } ->
    if w.estimate = o.final.estimate && w.half_width = o.final.half_width && w.walks = o.final.walks
    then None
    else
      Some
        (Printf.sprintf "%s seed %d: wire %.17g +/- %.17g (%d walks) vs in-process %.17g +/- %.17g (%d)"
           st.name r.req.seed w.estimate w.half_width w.walks o.final.estimate o.final.half_width
           o.final.walks)
  | _ -> Some (st.name ^ ": replay shape mismatch")

let run_serve a =
  let s, setup_s, raw_setup = repeated_setup (setup_serve a) (fun s -> Serve.stop s.daemon) in
  let url = s.daemon.Serve.url in
  let before = Serve.scrape s.daemon in
  let since = now () in
  let scaled, elapsed, raw_elapsed =
    Serve.closed_loop ~url ~seconds:a.seconds ~min_answers:serve_min_answers
      ~max_seconds:max_timed_s s.s_truths
      (Serve.request ~seed:a.seed)
  in
  let resps = List.map fst scaled in
  let after = Serve.scrape s.daemon in
  let delta name = after name -. before name in
  let log = Serve.access_log ~path:s.log ~since in
  Serve.stop s.daemon;
  (* Bit-for-bit replay of a sample, outside the timed phase; a mismatch
     fails the answer. *)
  let sampled =
    take 24 (List.filter (fun (r : Serve.resp) -> r.req.sample && r.ok && not r.cached) resps)
  in
  let mismatches =
    List.filter_map (fun (r : Serve.resp) -> Option.map (fun why -> (r.req.idx, why)) (replay_check s r)) sampled
  in
  Printf.printf "# check %d sampled answers replayed in-process, %d differ bit for bit\n"
    (List.length sampled) (List.length mismatches);
  let resps =
    List.map
      (fun (r : Serve.resp) ->
        match List.assoc_opt r.req.idx mismatches with
        | Some why -> { r with ok = false; why }
        | None -> r)
      resps
  in
  let wire_walks =
    List.fold_left
      (fun acc (r : Serve.resp) ->
        match r.wire with Some (Serve.Online o) when not r.cached -> acc + o.walks | _ -> acc)
      0 resps
  in
  Printf.printf "# check daemon walker.walks grew by %.0f; answers report %d walks\n"
    (delta "wj_walker_walks") wire_walks;
  Printf.printf "# heap daemon gc.heap_words %.1f MB after set-up, %.1f MB after the run\n"
    (heap_mb (int_of_float s.heap_words))
    (heap_mb (int_of_float (after "wj_gc_heap_words")));
  let answers =
    List.map2
      (fun (r : Serve.resp) (_, latency) ->
        let walks = match r.wire with Some (Serve.Online o) -> o.walks | _ -> 0 in
        {
          cls = r.req.st.name;
          latency;
          raw = r.latency;
          verdict = { W.walks; ok = r.ok; why = r.why };
          traced = None;
        })
      resps scaled
  in
  print_classes answers;
  let metrics =
    if not a.trace then
      end_to_end ~setup_s ~elapsed ~raw:(raw_elapsed, raw_setup) ~answers
        ~walks_total:(int_of_float (delta "wj_walker_walks"))
        ~walks_per_answer:
          (walks_per_answer answers ~prefix:serve_min_answers ~targeted:(targeted Serve.statements))
        ~heap:(heap_mb (int_of_float s.heap_words))
    else begin
      (* In-process replay of the first requests, traced, for the layers
         the wire cannot split. *)
      let tr = spans () in
      let replayed =
        List.map
          (fun (r : Serve.resp) ->
            let st = r.req.st in
            let truth = List.assoc st.name s.s_truths in
            let t0 = now () in
            let t = Layers.traced_answer tr ~answer:r.req.idx s.s_catalog st truth ~seed:r.req.seed in
            let t1 = now () in
            ignore (Engine.execute_session (W.config st ~seed:r.req.seed) s.s_catalog st.sql);
            (r, t, (t1 -. t0, now () -. t1)))
          (take 40 resps)
      in
      let traced = List.map (fun (_, t, _) -> t) replayed in
      let plans =
        first_plans Serve.statements
          (List.map (fun ((r : Serve.resp), t, _) -> (r.req.st.name, t)) replayed)
      in
      let costs, walker = walker_metrics ~seed:a.seed plans in
      write_trace a tr costs;
      let walking =
        sum
          (List.map
             (fun ((r : Serve.resp), (t : Layers.traced), _) -> if r.cached then 0.0 else t.session_s)
             replayed)
      in
      let wire_lat = sum (List.map (fun ((r : Serve.resp), _, _) -> r.latency) replayed) in
      let lat_of p = List.filter_map (fun (r : Serve.resp) -> if p r then Some r.latency else None) resps in
      let twin traced (r : Serve.resp) = Serve.trace_twin r.req && r.req.traced = traced && not r.cached in
      let cache_hits = delta "wj_cache_hits" and cache_misses = delta "wj_cache_misses" in
      let online_log = List.filter (fun (_, _, w, c) -> w > 0 && c <> "hit") log in
      answer_layer_metrics tr traced
      @ walker
      @ [
          f "walker.answer_share" "ratio" (ratio walking wire_lat);
          f "exact.ms" "ms" (median (durations tr "exact") *. 1e3);
          f "pager.hit_ratio" "ratio" 1.0;
          f "pager.misses_per_walk" "misses" 0.0;
          f "bench.span_overhead_ratio" "ratio"
            (overhead_ratio
               (List.concat_map
                  (fun ((r : Serve.resp), _, (traced_s, untraced_s)) ->
                    [ (r.req.st.name, true, traced_s); (r.req.st.name, false, untraced_s) ])
                  replayed));
          f "sched.queue_wait_p50_ms" "ms" (median (List.map (fun (q, _, _, _) -> q) log));
          f "sched.quanta_per_answer" "quanta"
            (median (List.map (fun (_, q, _, _) -> float_of_int q) online_log));
          f "http.first_chunk_ms" "ms"
            (median (List.filter_map (fun (r : Serve.resp) -> Option.map (fun x -> x *. 1e3) r.first_chunk) resps));
          f "http.chunks_per_answer" "chunks"
            (median
               (List.filter_map
                  (fun (r : Serve.resp) -> if r.first_chunk <> None then Some (float_of_int r.chunks) else None)
                  resps));
          f "cache.hit_ratio" "ratio" (ratio cache_hits (cache_hits +. cache_misses));
          f "cache.hit_us" "us" (median (lat_of (fun r -> r.cached)) *. 1e6);
          f "trace.overhead_ratio" "ratio"
            (ratio (median (lat_of (twin true))) (median (lat_of (twin false))));
        ]
      @ single_call_metrics ~seed:a.seed
    end
  in
  let failed = List.filter_map (fun (r : Serve.resp) -> if r.ok then None else Some r.why) resps in
  ( metrics,
    List.length resps,
    failed,
    [ ("pool_pages", Wj_daemon.Json.Int 0); ("clients", Wj_daemon.Json.Int Serve.clients) ] )

(* ---- main ------------------------------------------------------------ *)

let () =
  (* A daemon that dies mid-request must fail that answer, not the bench. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a = parse_args () in
  if not (Sys.file_exists a.work_dir) then Sys.mkdir a.work_dir 0o755;
  let metrics, attempted, why, extra =
    match a.workload with
    | "walk_mem" -> run_inproc a ~paged:false
    | "walk_paged" -> run_inproc a ~paged:true
    | "serve_mix" -> run_serve a
    | w -> failwith ("unknown workload " ^ w)
  in
  let meta =
    let open Wj_daemon.Json in
    [
      ("workload", Str a.workload);
      ("host", Str (Unix.gethostname ()));
      ("nproc", Int (Domain.recommended_domain_count ()));
      ("ocaml", Str Sys.ocaml_version);
      ("commit", Str a.commit);
      ("sf", Float W.sf);
      ("data_seed", Int W.data_seed);
      ("workload_seed", Int a.seed);
      ("trace", Bool a.trace);
      ("seconds", Float a.seconds);
    ]
    @ extra
  in
  (* Segment files and access logs are scratch; traced runs keep their span files. *)
  Array.iter
    (fun e ->
      if String.starts_with ~prefix:"segments-" e || String.starts_with ~prefix:"access-" e then
        rm_rf (Filename.concat a.work_dir e))
    (Sys.readdir a.work_dir);
  (* What each workload was chosen for, confirmed from its traced run. *)
  let value name =
    match List.find_opt (fun m -> m.name = name) metrics with
    | Some { value = Wj_daemon.Json.Float v; _ } -> Some v
    | _ -> None
  in
  let confirm name claim holds =
    Option.iter
      (fun v -> Printf.printf "# check %s = %.4f %s: %s\n" name v claim (if holds v then "yes" else "NO"))
      (value name)
  in
  (match a.workload with
  | "walk_mem" -> confirm "walker.answer_share" ">= 0.75" (fun v -> v >= 0.75)
  | "walk_paged" -> confirm "pager.hit_ratio" "< 1" (fun v -> v < 1.0)
  | _ -> confirm "walker.answer_share" "< 1/3" (fun v -> v < 1.0 /. 3.0));
  let failed = List.length why in
  emit ~meta ~attempted ~failed ~why metrics;
  exit (if failed = 0 then 0 else 1)
