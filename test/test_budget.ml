(* Deterministic per-walk budgets for the walk loop.

   Barebone Q3/Q7/Q10 at SF 0.01 (data seed 7), each on its first
   enumerated plan with a fixed PRNG seed, walked [n] times through
   [Walker.walk].  Two counts per query read the same on any machine:

   - index probes per walk ([walker.index_probes / walker.walks]), which
     must equal the recorded value exactly — a change means the walk
     loop probes differently;
   - minor-heap words allocated per walk, which must not exceed the
     recorded ceiling, both for the bare walker and for
     [Online.run_session] driving the same plan for the same [n] walks
     (its one-off set-up amortised over them), so the driver around
     [Walker.walk] is held to its allocation too.

   The recorded values were measured with OCaml 5.1.1 (native code, dune's
   default profile) after the step path stopped allocating per draw and
   per probe: the Bytes-backed PRNG state, the flat CSR hash index, the
   rank-interval Olken start, loop-based row and non-tree checks and the
   array-free [Moments.add3].  Before that cut the ceilings were, walker /
   session minor words per walk: Q3 150.6019 / 184.6208, Q7 283.0 /
   317.0322, Q10 195.5785 / 229.5991.  What is left per walker walk is the
   path array, one boxed factor per [Advanced] phase and the [Success]
   record. *)

module Queries = Wj_tpch.Queries
module Generator = Wj_tpch.Generator
module Walker = Wj_core.Walker
module Walk_plan = Wj_core.Walk_plan
module Online = Wj_core.Online
module Run_config = Wj_core.Run_config
module Metrics = Wj_obs.Metrics
module Snapshot = Wj_obs.Snapshot
module Sink = Wj_obs.Sink
module Prng = Wj_util.Prng

let n = 20_000
let seed = 5
let dataset = lazy (Generator.generate ~seed:7 ~sf:0.01 ())

let setup spec =
  let q = Queries.build ~variant:Barebone spec (Lazy.force dataset) in
  let reg = Queries.registry q in
  match Walk_plan.enumerate ~max_plans:1 q reg with
  | plan :: _ -> (q, reg, plan)
  | [] -> Alcotest.fail "no walk plan"

type budget = {
  spec : Queries.spec;
  probes_per_walk : float;  (** exact *)
  walker_words : float;  (** upper bound, minor words per walk *)
  session_words : float;  (** upper bound, minor words per walk *)
}

(* Where these come from: see the header. *)
let budgets =
  [
    {
      spec = Queries.Q3;
      probes_per_walk = 2.0;
      walker_words = 21.0;
      session_words = 49.02425;
    };
    {
      spec = Queries.Q7;
      probes_per_walk = 5.0;
      walker_words = 36.0;
      session_words = 64.0298;
    };
    {
      spec = Queries.Q10;
      probes_per_walk = 3.0;
      walker_words = 26.0;
      session_words = 54.02615;
    };
  ]

let probes_per_walk (q, reg, plan) =
  let m = Metrics.create () in
  let p = Walker.prepare ~sink:(Sink.of_metrics m) q reg plan in
  let prng = Prng.create seed in
  for _ = 1 to n do
    ignore (Walker.walk p prng)
  done;
  let snap = Snapshot.of_metrics m in
  float_of_int (Snapshot.counter_value snap "walker.index_probes")
  /. float_of_int (Snapshot.counter_value snap "walker.walks")

(* Nothing else may run between the two reads: even an Alcotest check
   allocates, by an amount that depends on what was logged before it. *)
let words_per_walk f =
  let w0 = Gc.minor_words () in
  let r = f () in
  ((Gc.minor_words () -. w0) /. float_of_int n, r)

let walker_words (q, reg, plan) =
  let p = Walker.prepare q reg plan in
  let prng = Prng.create seed in
  fst
    (words_per_walk (fun () ->
         for _ = 1 to n do
           ignore (Walker.walk p prng)
         done))

let session_words (q, reg, plan) =
  let words, (o : Online.outcome) =
    words_per_walk (fun () ->
        Online.run_session
          (Run_config.make ~seed ~max_time:infinity ~max_walks:n
             ~plan_choice:(Run_config.Fixed plan) ())
          q reg)
  in
  Alcotest.(check int) "session walked the budget" n o.final.walks;
  words

let test_budget b () =
  let s = setup b.spec in
  let name = Queries.name_of b.spec in
  let probes = probes_per_walk s in
  Alcotest.(check (float 0.0)) (name ^ " index probes per walk") b.probes_per_walk probes;
  let ww = walker_words s in
  Alcotest.(check bool)
    (Printf.sprintf "%s walker minor words per walk %.4f <= %.4f" name ww b.walker_words)
    true (ww <= b.walker_words);
  let sw = session_words s in
  Alcotest.(check bool)
    (Printf.sprintf "%s session minor words per walk %.4f <= %.4f" name sw b.session_words)
    true (sw <= b.session_words)

let () =
  Alcotest.run "wj_budget"
    [
      ( "per-walk",
        List.map
          (fun b -> Alcotest.test_case (Queries.name_of b.spec) `Quick (test_budget b))
          budgets );
    ]
