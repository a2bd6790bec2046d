(* Per-layer measurement from outside the program: the traced answer path
   and the plain timed loops over single layers' public functions. *)

open Measure
module Engine = Wj_sql.Engine
module Registry = Wj_core.Registry
module Index = Wj_index.Index
module Walker = Wj_core.Walker
module Prng = Wj_util.Prng

(* What one traced answer leaves for the per-layer figures. *)
type traced = {
  verdict : Workload.verdict;
  session_s : float;  (** walking, optimizer trials included *)
  optimizer_s : float;
  trial_walks : int;
  entries : int;
  probes : int;
  plan : (Wj_core.Query.t * Registry.t * Wj_core.Walk_plan.t) option;
}

(* "index.pos<p>.trie<cols>.probes", as [Registry.export_metrics] names them. *)
let is_trie_gauge name =
  match String.split_on_char '.' name with
  | [ "index"; _; t; "probes" ] -> String.starts_with ~prefix:"trie" t
  | _ -> false

(* Lifetime probes of every physical index the registry holds.  Aliased
   positions share one physical index, counted once; tries are read from
   the gauges the registry exports. *)
let probes registry =
  let seen = ref [] in
  Registry.iter registry (fun ~pos:_ ~column:_ idx ->
      if not (List.memq idx !seen) then seen := idx :: !seen);
  let slots = List.fold_left (fun acc idx -> acc + Index.probes idx) 0 !seen in
  let m = Wj_obs.Metrics.create () in
  Registry.export_metrics registry m;
  List.fold_left
    (fun acc (name, fam) ->
      match fam with
      | Wj_obs.Metrics.Gauge g when is_trie_gauge name ->
        acc + int_of_float (Wj_obs.Gauge.value g)
      | _ -> acc)
    slots (Wj_obs.Metrics.families m)

(* [Engine.execute_session] split into the public steps it composes, each
   timed as a span of answer [answer].  Same calls, same order, so the
   answer is the one [execute_session] gives. *)
let traced_answer tr ~answer catalog (st : Workload.stmt) truth ~seed =
  span tr ~answer "answer" (fun () ->
      let statement = span tr ~answer "sql.parse" (fun () -> Wj_sql.Parser.parse st.sql) in
      let bound =
        span tr ~answer "sql.bind" (fun () -> Wj_sql.Binder.bind catalog statement)
      in
      let cfg =
        span tr ~answer "sql.clauses" (fun () ->
            Engine.apply_clauses (Workload.config st ~seed) statement bound)
      in
      let q = match bound.Wj_sql.Binder.queries with [ (_, q) ] -> q | _ -> assert false in
      let registry =
        span tr ~answer "registry.build" (fun () -> Registry.build_for_query q)
      in
      let entries = Registry.total_entries registry in
      let t0 = now () in
      let outcome =
        if not bound.online then
          span tr ~answer "exact" (fun () ->
              Engine.Exact_scalar (Wj_exec.Exact.aggregate q registry))
        else
          span tr ~answer "online.session" (fun () ->
              match q.Wj_core.Query.group_by with
              | Some _ ->
                Engine.Online_groups (Wj_core.Online.run_group_by_session cfg q registry)
              | None -> Engine.Online_scalar (Wj_core.Online.run_session cfg q registry))
      in
      let session_s = now () -. t0 in
      let verdict = Workload.verdict_of st truth outcome in
      let optimizer_s, trial_walks, plan =
        match outcome with
        | Engine.Online_scalar o -> (o.optimizer_time, o.optimizer_walks, Some (q, registry, o.plan))
        | _ -> (0.0, 0, None)
      in
      {
        verdict;
        session_s = (if bound.online then session_s else 0.0);
        optimizer_s;
        trial_walks;
        entries;
        probes = probes registry;
        plan;
      })

(* ---- walker phases --------------------------------------------------- *)

type walker_cost = {
  walks : int;
  walk_s : float;  (** [Walker.walk] loop, floor subtracted *)
  start_s : float;  (** [advance_start] loop *)
  phase_s : float;  (** start + [advance_step] until done or dead *)
  steps : int;
  successes : int;
  minor_words : float;
}

(* Drive one prepared plan [n] walks three ways: starts only, phases
   composed by hand, and whole walks.  Seeds are fixed, so walks,
   successes and minor words repeat exactly. *)
let walker_cost ~seed ~n (q, registry, plan) =
  let p = Walker.prepare q registry plan in
  let path = Array.make (Wj_core.Query.k q) 0 in
  let nsteps = Array.length plan.Wj_core.Walk_plan.steps in
  let floor = floor_s n in
  let prng = Prng.create seed in
  let start_s = time_loop n (fun _ -> ignore (Walker.advance_start p prng path)) -. floor in
  let prng = Prng.create seed in
  let steps = ref 0 in
  let phase_s =
    time_loop n (fun _ ->
        match Walker.advance_start p prng path with
        | Walker.Advanced _ ->
          let i = ref 0 in
          while !i < nsteps do
            incr steps;
            match Walker.advance_step p prng path !i with
            | Walker.Advanced _ -> incr i
            | Walker.Dead_unbound | Walker.Dead_bound -> i := nsteps
          done
        | Walker.Dead_unbound | Walker.Dead_bound -> ())
    -. floor
  in
  let prng = Prng.create seed in
  let successes = ref 0 in
  let w0 = Gc.minor_words () in
  let walk_s =
    time_loop n (fun _ ->
        match Walker.walk p prng with
        | Walker.Success _ -> incr successes
        | Walker.Failure _ -> ())
    -. floor
  in
  let minor_words = Gc.minor_words () -. w0 in
  { walks = n; walk_s; start_s; phase_s; steps = !steps; successes = !successes; minor_words }

(* ---- single-call loops ----------------------------------------------- *)

let prng_draw_ns ~seed =
  let p = Prng.create seed in
  per_call_ns (fun _ -> ignore (Sys.opaque_identity (Prng.int p 1_000_003)))

let stats_add_ns ~seed =
  let p = Prng.create seed in
  let us = Array.init 4096 (fun _ -> 1.0 +. Prng.float p 1000.0) in
  let est = Wj_stats.Estimator.create Wj_stats.Estimator.Sum in
  per_call_ns (fun i -> Wj_stats.Estimator.add est ~u:us.(i land 4095) ~v:2.5)

(* One walk step's worth of index work: count the key's neighbours, then
   fetch one of them.  Keys are o_custkey values drawn from orders rows. *)
let probe_ns ~seed orders =
  let col = Wj_storage.Table.column_index orders "o_custkey" in
  let okey = Wj_storage.Table.column_index orders "o_orderkey" in
  let p = Prng.create seed in
  let rows = Wj_storage.Table.length orders in
  let keys =
    Array.init 65536 (fun _ -> Wj_storage.Table.get_int orders ~col (Prng.int p rows))
  in
  let probe idx =
    per_call_ns (fun i ->
        let k = keys.(i land 65535) in
        let c = Index.count_eq idx k in
        if c > 0 then ignore (Sys.opaque_identity (Index.nth_eq idx k (i mod c))))
  in
  ( probe (Index.build_hash orders ~column:col),
    probe (Index.build_ordered orders ~column:col),
    probe (Index.build_trie orders ~columns:[ col; okey ]) )

(* A final result document as the daemon streams it. *)
let final_doc =
  let open Wj_daemon.Json in
  Obj
    [
      ("type", Str "final");
      ("status", Str "done");
      ("cached", Bool false);
      ( "items",
        List
          [
            Obj
              [
                ("label", Str "SUM((l_extendedprice * (1 - l_discount)))");
                ("kind", Str "online");
                ("state", Str "done");
                ("reason", Str "target_reached");
                ("estimate", Float 36538011.272849552);
                ("half_width", Float 1826379.3361231317);
                ("walks", Int 90368);
                ("successes", Int 20431);
                ("elapsed", Float 0.13947486877441406);
                ("plan", Str "customer -> orders -> lineitem");
              ];
          ] );
    ]

let json_us () =
  let s = Wj_daemon.Json.to_string final_doc in
  let enc = per_call_ns ~n:200_000 (fun _ -> ignore (Sys.opaque_identity (Wj_daemon.Json.to_string final_doc))) in
  let dec = per_call_ns ~n:200_000 (fun _ -> ignore (Sys.opaque_identity (Wj_daemon.Json.parse s))) in
  (enc /. 1000.0, dec /. 1000.0)
