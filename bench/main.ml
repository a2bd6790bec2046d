(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5), plus ablations and bechamel micro-benchmarks.

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- --only fig9  -- one experiment
     dune exec bench/main.exe -- --quick      -- reduced sizes/targets
     dune exec bench/main.exe -- --list       -- list experiment ids

   Scale: the paper ran 1-40 GB TPC-H on a 2016 server; this harness runs
   scaled-down datasets (the SF behind each label is printed at generation)
   and targets the paper's *shapes* — who wins, by what factor, where
   crossovers fall.  EXPERIMENTS.md records paper-vs-measured per
   experiment.  Limited-memory experiments run on a hybrid clock: real CPU
   time plus simulated I/O charges from the buffer-pool model. *)

module Generator = Wj_tpch.Generator
module Queries = Wj_tpch.Queries
module Query = Wj_core.Query
module Online = Wj_core.Online
module Optimizer = Wj_core.Optimizer
module Walk_plan = Wj_core.Walk_plan
module Ripple = Wj_ripple.Ripple
module Index_ripple = Wj_ripple.Index_ripple
module Exact = Wj_exec.Exact
module Target = Wj_stats.Target
module Timer = Wj_util.Timer
module Sim = Wj_iosim.Sim
module Cost_model = Wj_iosim.Cost_model

let quick = ref false
let seed = 424242

(* ---- dataset cache ---------------------------------------------------- *)

module Data = struct
  let cache : (float, Generator.dataset) Hashtbl.t = Hashtbl.create 8

  let get sf =
    match Hashtbl.find_opt cache sf with
    | Some d -> d
    | None ->
      Printf.printf "  [data] generating TPC-H SF %g ...\n%!" sf;
      let d = Generator.generate ~seed:7 ~sf () in
      Hashtbl.add cache sf d;
      d
end

(* Label -> scale factor mappings (paper GB labels, scaled down ~1:100). *)
let standalone_sizes () =
  if !quick then [ ("1GB", 0.01); ("2GB", 0.02) ]
  else [ ("1GB", 0.01); ("2GB", 0.02); ("3GB", 0.03) ]

let system_sizes () =
  if !quick then [ ("5GB", 0.025); ("10GB", 0.05) ]
  else [ ("5GB", 0.025); ("10GB", 0.05); ("15GB", 0.075); ("20GB", 0.1) ]

let limited_sizes () =
  if !quick then [ ("10GB", 0.025); ("20GB", 0.05) ]
  else [ ("10GB", 0.025); ("20GB", 0.05); ("30GB", 0.075); ("40GB", 0.1) ]

let specs = [ Queries.Q3; Queries.Q7; Queries.Q10 ]

(* ---- helpers ----------------------------------------------------------- *)

let pct x = 100.0 *. x

let rel_err est truth =
  if truth = 0.0 then Float.abs est else Float.abs ((est -. truth) /. truth)

(* Every online cell below runs through the Run_config session path; these
   forward the bench's global seed. *)
let online_run ?target ?max_time ?max_walks ?report_every ?clock ?plan_choice ?sink
    ?eager_checks ?on_report q reg =
  Online.run_session ?eager_checks ?on_report
    (Wj_core.Run_config.make ~seed ?target ?max_time ?max_walks ?report_every
       ?clock ?plan_choice ?sink ())
    q reg

let online_run_group_by ?max_time ?max_walks ?report_every ?on_group_report q reg =
  Online.run_group_by_session ?on_group_report
    (Wj_core.Run_config.make ~seed ?max_time ?max_walks ?report_every ())
    q reg

(* Time for wander join to reach a relative CI target; the optimizer runs
   inside (its trial walks feed the final estimator, as in the paper). *)
let wj_time_to_ci ?(plan_choice = Online.Optimize Optimizer.default_config) ~target ~cap q
    reg =
  let out =
    online_run ~max_time:cap ~target:(Target.relative target) ~plan_choice q reg
  in
  (out.final.elapsed, out)

let fmt_time ~cap t =
  if t >= cap then Printf.sprintf ">%.3g" cap else Printf.sprintf "%.3g" t

(* The "PG plan": the walk order implied by the query's FROM clause. *)
let pg_plan q reg =
  match Walk_plan.of_order q reg (Array.init (Query.k q) Fun.id) with
  | Some p -> p
  | None -> List.hd (Walk_plan.enumerate ~max_plans:1 q reg)

(* Best and median plans as ranked by the optimizer's Var(X)*E[T] objective
   (stand-in for the paper's run-every-plan WJ(B)/WJ(M), which would be too
   slow to repeat per cell). *)
let ranked_plans q reg =
  let prng = Wj_util.Prng.create seed in
  let r = Optimizer.choose q reg prng in
  let ranked =
    List.sort
      (fun (a : Optimizer.plan_report) b -> compare a.objective b.objective)
      r.reports
  in
  let arr = Array.of_list ranked in
  let n = Array.length arr in
  (arr.(0).plan, arr.(min (n - 1) (n / 2)).plan)

let header title = Printf.printf "\n================ %s ================\n%!" title

(* ======================================================================= *)
(* Figure 8 *)
(* ======================================================================= *)

let fig8 () =
  header "Figure 8: CI and estimate trajectories (barebone, 2GB, 95% conf)";
  let d = Data.get 0.02 in
  let horizon = if !quick then 0.5 else 1.0 in
  let step = horizon /. 10.0 in
  List.iter
    (fun spec ->
      let q = Queries.build ~variant:Barebone spec d in
      let reg = Queries.registry q in
      let truth = (Exact.aggregate q reg).value in
      let wj = ref [] in
      ignore
        (online_run ~max_time:horizon ~report_every:step
           ~on_report:(fun r ->
             wj :=
               (r.elapsed, pct (r.half_width /. truth), pct (rel_err r.estimate truth))
               :: !wj)
           q reg);
      let rj = ref [] in
      ignore
        (Ripple.run ~seed ~max_time:horizon ~report_every:step
           ~on_report:(fun r ->
             rj :=
               (r.elapsed, pct (r.half_width /. truth), pct (rel_err r.estimate truth))
               :: !rj)
           q reg);
      Printf.printf "\n%s (true SUM = %.6g)\n" (Queries.name_of spec) truth;
      Printf.printf "%8s  %10s %10s  %10s %10s\n" "time(s)" "WJ CI%" "WJ err%" "RJ CI%"
        "RJ err%";
      let wj = List.rev !wj and rj = List.rev !rj in
      List.iteri
        (fun i (t, ci, err) ->
          let rj_cols =
            match List.nth_opt rj i with
            | Some (_, rci, rerr) -> Printf.sprintf "%10.3f %10.3f" rci rerr
            | None -> Printf.sprintf "%10s %10s" "done" "done"
          in
          Printf.printf "%8.2f  %10.3f %10.3f  %s\n" t ci err rj_cols)
        wj)
    specs

(* ======================================================================= *)
(* Figure 9 + Table 1 *)
(* ======================================================================= *)

let fig9 () =
  header "Figure 9: time (s) to +/-1% CI, barebone queries";
  let target = 0.01 in
  let cap = if !quick then 1.0 else 2.5 in
  Printf.printf "%-4s %-5s  %10s %10s %10s %10s %10s\n" "qry" "size" "RRJ" "IRJ" "WJ(B)"
    "WJ(M)" "WJ(O)";
  List.iter
    (fun spec ->
      List.iter
        (fun (label, sf) ->
          let d = Data.get sf in
          let q = Queries.build ~variant:Barebone spec d in
          let reg = Queries.registry q in
          let rrj =
            (Ripple.run ~seed ~max_time:cap ~target:(Target.relative target) q reg).final
              .elapsed
          in
          let irj =
            (Index_ripple.run ~seed ~max_time:cap ~target:(Target.relative target) q reg)
              .elapsed
          in
          let best, median = ranked_plans q reg in
          let t_best, _ =
            wj_time_to_ci ~plan_choice:(Online.Fixed best) ~target ~cap q reg
          in
          let t_median, _ =
            wj_time_to_ci ~plan_choice:(Online.Fixed median) ~target ~cap q reg
          in
          let t_opt, _ = wj_time_to_ci ~target ~cap q reg in
          Printf.printf "%-4s %-5s  %10s %10s %10s %10s %10s\n%!" (Queries.name_of spec)
            label (fmt_time ~cap rrj) (fmt_time ~cap irj) (fmt_time ~cap t_best)
            (fmt_time ~cap t_median) (fmt_time ~cap t_opt))
        (standalone_sizes ()))
    specs

let tab1 () =
  header "Table 1: optimizer time vs execution time to +/-1% CI (barebone)";
  let cap = if !quick then 1.5 else 3.0 in
  Printf.printf "%-4s %-5s  %16s %16s  %s\n" "qry" "size" "optimization(ms)"
    "execution(ms)" "chosen plan";
  List.iter
    (fun spec ->
      List.iter
        (fun (label, sf) ->
          let d = Data.get sf in
          let q = Queries.build ~variant:Barebone spec d in
          let reg = Queries.registry q in
          let _, out = wj_time_to_ci ~target:0.01 ~cap q reg in
          Printf.printf "%-4s %-5s  %16.1f %16.1f  %s\n%!" (Queries.name_of spec) label
            (1000.0 *. out.optimizer_time)
            (1000.0 *. (out.final.elapsed -. out.optimizer_time))
            out.plan_description)
        (standalone_sizes ()))
    specs

(* ======================================================================= *)
(* Figures 10/11 *)
(* ======================================================================= *)

let selectivity_figure ~title ~variants ~target ~cap () =
  header title;
  let d = Data.get 0.02 in
  Printf.printf "%-4s %6s  %10s %10s %10s %10s %10s\n" "qry" "sel%" "RRJ" "IRJ" "WJ(B)"
    "WJ(M)" "WJ(O)";
  List.iter
    (fun spec ->
      let bare = Queries.build ~variant:Barebone spec d in
      let barebone_size =
        float_of_int (Exact.join_size bare (Queries.registry bare))
      in
      List.iter
        (fun variant ->
          let q = Queries.build ~variant spec d in
          let reg = Queries.registry q in
          (* Overall selectivity per the paper's Eq. (4). *)
          let sel = 1.0 -. (float_of_int (Exact.join_size q reg) /. barebone_size) in
          let rrj =
            (Ripple.run ~seed ~max_time:cap ~target:(Target.relative target) q reg).final
              .elapsed
          in
          let irj =
            (Ripple.run ~seed ~mode:Ripple.Index_assisted ~max_time:cap
               ~target:(Target.relative target) q reg)
              .final
              .elapsed
          in
          let best, median = ranked_plans q reg in
          let t_best, _ =
            wj_time_to_ci ~plan_choice:(Online.Fixed best) ~target ~cap q reg
          in
          let t_median, _ =
            wj_time_to_ci ~plan_choice:(Online.Fixed median) ~target ~cap q reg
          in
          let t_opt, _ = wj_time_to_ci ~target ~cap q reg in
          Printf.printf "%-4s %6.1f  %10s %10s %10s %10s %10s\n%!" (Queries.name_of spec)
            (pct sel) (fmt_time ~cap rrj) (fmt_time ~cap irj) (fmt_time ~cap t_best)
            (fmt_time ~cap t_median) (fmt_time ~cap t_opt))
        variants)
    specs

let fig10 () =
  let fracs = if !quick then [ 0.8; 0.4 ] else [ 0.8; 0.6; 0.4; 0.2 ] in
  selectivity_figure
    ~title:"Figure 10: time (s) to +/-1% CI, ONE date predicate, varying selectivity (2GB)"
    ~variants:(List.map (fun f -> Queries.One_date f) fracs)
    ~target:0.01
    ~cap:(if !quick then 1.5 else 3.0)
    ()

let fig11 () =
  let fracs = if !quick then [ 0.6; 0.2 ] else [ 0.8; 0.6; 0.4; 0.2; 0.1 ] in
  selectivity_figure
    ~title:
      "Figure 11: time (s) to +/-2% CI, ALL predicates, scaled selectivity (2GB)"
    ~variants:(List.map (fun f -> Queries.Scaled f) fracs)
    ~target:0.02
    ~cap:(if !quick then 2.0 else 5.0)
    ()

(* ======================================================================= *)
(* Figure 12 *)
(* ======================================================================= *)

let fig12 () =
  header "Figure 12a/b: full join vs wander join, standard predicates";
  (* The paper targets 1% at 5-20GB; CI difficulty tracks the qualifying
     join cardinality, which is ~100x smaller at bench scale, so we target
     2% to land in a comparable sampling regime. *)
  let target = 0.02 in
  let cap = if !quick then 4.0 else 8.0 in
  Printf.printf "%-4s %-5s  %14s  %18s %10s\n" "qry" "size" "full join(s)"
    "WJ to 2% CI(s)" "walks";
  List.iter
    (fun spec ->
      List.iter
        (fun (label, sf) ->
          let d = Data.get sf in
          let q = Queries.build ~variant:Standard spec d in
          let reg = Queries.registry q in
          let _, t_full = Timer.time_it (fun () -> Exact.aggregate q reg) in
          let t_wj, out = wj_time_to_ci ~target ~cap q reg in
          Printf.printf "%-4s %-5s  %14.3f  %18s %10d\n%!" (Queries.name_of spec) label
            t_full (fmt_time ~cap t_wj) out.final.walks)
        (system_sizes ()))
    specs;

  header "Figure 12c: GROUP BY c_mktsegment, relative CI per group over time";
  let d = Data.get (if !quick then 0.025 else 0.05) in
  let q = Queries.build ~variant:Standard ~group_by_segment:true Queries.Q10 d in
  let reg = Queries.registry q in
  Printf.printf "%8s" "time(s)";
  Array.iter (fun s -> Printf.printf "  %11s" s) Generator.market_segments;
  print_newline ();
  ignore
    (online_run_group_by
       ~max_time:(if !quick then 1.5 else 3.0)
       ~report_every:0.5
       ~on_group_report:(fun t groups ->
         Printf.printf "%8.2f" t;
         List.iter
           (fun (_, (r : Online.report)) ->
             Printf.printf "  %10.2f%%" (pct (r.half_width /. Float.abs r.estimate)))
           groups;
         print_newline ())
       q reg)

(* ======================================================================= *)
(* Figure 13: limited memory, simulated I/O on a hybrid clock. *)
(* ======================================================================= *)

(* Pool of a "4GB machine": 40% of the pages of the "10GB" dataset. *)
let limited_pool_pages model =
  let ten_gb_rows = Generator.total_rows (Data.get 0.025) in
  max 64 (4 * Cost_model.pages_of_rows model ten_gb_rows / 10)

(* Sort-merge full join: read + sort (2 passes) + merge read per table. *)
let simulated_full_join_seconds model q =
  let passes = 4.0 in
  Array.fold_left
    (fun acc t ->
      acc +. (passes *. Cost_model.scan_seconds model ~rows:(Wj_storage.Table.length t)))
    0.0 q.Query.tables

let fig13 () =
  header "Figure 13: limited memory; time (SIMULATED s) to +/-5% CI";
  let model = Cost_model.default in
  let target = 0.05 in
  let vcap = if !quick then 60.0 else 240.0 in
  Printf.printf "%-4s %-5s  %14s %14s %14s %16s\n" "qry" "size" "full join" "Turbo DBO~"
    "wander join" "WJ (warm pool)";
  List.iter
    (fun spec ->
      List.iter
        (fun (label, sf) ->
          let d = Data.get sf in
          let q = Queries.build ~variant:Standard spec d in
          let reg = Queries.registry q in
          let pool_pages = limited_pool_pages model in
          let t_full = simulated_full_join_seconds model q in
          (* DBO stand-in: random-order ripple, sequential retrieval. *)
          let clock = Timer.hybrid () in
          let sim = Sim.create ~model ~pool_pages ~clock () in
          let dbo =
            Ripple.run ~seed ~clock ~max_time:vcap ~max_rounds:20_000_000
              ~target:(Target.relative target)
              ~tuple_tracer:(Sim.ripple_tracer sim) q reg
          in
          (* Wander join through the cold buffer pool. *)
          let clock2 = Timer.hybrid () in
          let sim2 = Sim.create ~model ~pool_pages ~clock:clock2 () in
          let wj =
            online_run ~clock:clock2 ~max_time:vcap
              ~target:(Target.relative target) ~sink:(Sim.sink sim2) q reg
          in
          (* Wander join with data resident (the "sufficient memory" side of
             the paper's one-time-cost observation). *)
          let clock3 = Timer.hybrid () in
          let sim3 =
            Sim.create ~model ~pool_pages:(100 * pool_pages) ~clock:clock3 ()
          in
          Array.iteri
            (fun pos t -> Sim.warm sim3 ~table:pos ~rows:(Wj_storage.Table.length t))
            q.Query.tables;
          let wj_warm =
            online_run ~clock:clock3 ~max_time:vcap
              ~target:(Target.relative target) ~sink:(Sim.sink sim3) q reg
          in
          Printf.printf "%-4s %-5s  %14.1f %14s %14s %16s\n%!" (Queries.name_of spec)
            label t_full
            (fmt_time ~cap:vcap dbo.final.elapsed)
            (fmt_time ~cap:vcap wj.final.elapsed)
            (fmt_time ~cap:vcap wj_warm.final.elapsed))
        (limited_sizes ()))
    specs

(* ======================================================================= *)
(* Table 2 *)
(* ======================================================================= *)

let tab2 () =
  header
    "Table 2: optimizer vs PG plan (time to 2%/5% CI, actual error %)";
  let sizes =
    if !quick then [ ("10GB", 0.025) ] else [ ("10GB", 0.025); ("20GB", 0.05) ]
  in
  Printf.printf "%-4s %-5s %-10s  %10s %8s   %10s %8s\n" "qry" "size" "regime" "opt(s)"
    "AE%" "pg(s)" "AE%";
  List.iter
    (fun spec ->
      List.iter
        (fun (label, sf) ->
          let d = Data.get sf in
          let q = Queries.build ~variant:Standard spec d in
          let reg = Queries.registry q in
          let truth = (Exact.aggregate q reg).value in
          (* Sufficient memory: wall clock, 2% target (the paper's 1% at
             its 100x larger qualifying joins). *)
          let cap = if !quick then 3.0 else 6.0 in
          let t_opt, out_opt = wj_time_to_ci ~target:0.02 ~cap q reg in
          let t_pg, out_pg =
            wj_time_to_ci ~plan_choice:(Online.Fixed (pg_plan q reg)) ~target:0.02 ~cap q
              reg
          in
          Printf.printf "%-4s %-5s %-10s  %10s %8.2f   %10s %8.2f\n%!"
            (Queries.name_of spec) label "memory" (fmt_time ~cap t_opt)
            (pct (rel_err out_opt.final.estimate truth))
            (fmt_time ~cap t_pg)
            (pct (rel_err out_pg.final.estimate truth));
          (* Limited memory: hybrid clock, 5% target. *)
          let model = Cost_model.default in
          let pool_pages = limited_pool_pages model in
          let vcap = if !quick then 60.0 else 240.0 in
          let run_sim plan_choice =
            let clock = Timer.hybrid () in
            let sim = Sim.create ~model ~pool_pages ~clock () in
            online_run ~clock ~max_time:vcap ~target:(Target.relative 0.05)
              ~plan_choice ~sink:(Sim.sink sim) q reg
          in
          let o1 = run_sim (Online.Optimize Optimizer.default_config) in
          let o2 = run_sim (Online.Fixed (pg_plan q reg)) in
          Printf.printf "%-4s %-5s %-10s  %10s %8.2f   %10s %8.2f\n%!"
            (Queries.name_of spec) label "limited"
            (fmt_time ~cap:vcap o1.final.elapsed)
            (pct (rel_err o1.final.estimate truth))
            (fmt_time ~cap:vcap o2.final.elapsed)
            (pct (rel_err o2.final.estimate truth)))
        sizes)
    specs

(* ======================================================================= *)
(* Table 3 *)
(* ======================================================================= *)

let tab3 () =
  header "Table 3: accuracy in 1/10 of System X's full-join time";
  (* System X's full-join time is linear in data size, so its paper-scale
     time is our measured time multiplied by the row ratio between the
     labelled size (1 GB ~ SF 1) and the bench SF.  System X itself is
     modelled as a commercial engine ~1.8x faster than our full join. *)
  let sizes = if !quick then [ ("10GB", 0.025) ] else limited_sizes () in
  Printf.printf "%-4s %-5s %-10s  %12s %10s %8s   %10s %8s\n" "qry" "size" "regime"
    "SystemX(s)" "WJ CI%" "WJ AE%" "DBO~ CI%" "DBO~ AE%";
  let label_gb label = float_of_string (Filename.chop_suffix label "GB") in
  let show ~found ci ae =
    if found && Float.is_finite ci then
      (Printf.sprintf "%10.2f" ci, Printf.sprintf "%8.2f" ae)
    else ("         -", "       -")
  in
  List.iter
    (fun spec ->
      List.iter
        (fun (label, sf) ->
          let scale_ratio = label_gb label /. sf in
          let d = Data.get sf in
          let q = Queries.build ~variant:Standard spec d in
          let reg = Queries.registry q in
          let exact, t_full = Timer.time_it (fun () -> Exact.aggregate q reg) in
          let truth = exact.value in
          (* Sufficient memory. *)
          let sysx = 0.55 *. t_full *. scale_ratio in
          let budget = sysx /. 10.0 in
          let wj = online_run ~max_time:budget q reg in
          (* Wander join's work per CI level is scale-free, so it gets the
             paper-scale budget; ripple's is not — in the same budget at
             paper scale it samples fraction budget/(N*cost) of each table,
             so it gets the equivalent fraction here. *)
          let dbo = Ripple.run ~seed ~max_time:(budget /. scale_ratio) q reg in
          let w1, w2 =
            show ~found:(wj.final.successes > 0)
              (pct (wj.final.half_width /. Float.abs truth))
              (pct (rel_err wj.final.estimate truth))
          in
          let d1, d2 =
            show ~found:(dbo.final.successes > 0)
              (pct (dbo.final.half_width /. Float.abs truth))
              (pct (rel_err dbo.final.estimate truth))
          in
          Printf.printf "%-4s %-5s %-10s  %12.2f %s %s   %s %s\n%!"
            (Queries.name_of spec) label "memory" sysx w1 w2 d1 d2;
          (* Limited memory: budgets in simulated seconds at paper scale. *)
          let model = Cost_model.default in
          let pool_pages = limited_pool_pages model in
          let sysx_v = 0.55 *. simulated_full_join_seconds model q *. scale_ratio in
          let budget_v = sysx_v /. 10.0 in
          let clock = Timer.hybrid () in
          let sim = Sim.create ~model ~pool_pages ~clock () in
          let wjv =
            online_run ~clock ~max_time:budget_v ~sink:(Sim.sink sim) q
              reg
          in
          let clock2 = Timer.hybrid () in
          let sim2 = Sim.create ~model ~pool_pages ~clock:clock2 () in
          let dbov =
            Ripple.run ~seed ~clock:clock2 ~max_time:(budget_v /. scale_ratio)
              ~max_rounds:20_000_000 ~tuple_tracer:(Sim.ripple_tracer sim2) q reg
          in
          let w1, w2 =
            show ~found:(wjv.final.successes > 0)
              (pct (wjv.final.half_width /. Float.abs truth))
              (pct (rel_err wjv.final.estimate truth))
          in
          let d1, d2 =
            show ~found:(dbov.final.successes > 0)
              (pct (dbov.final.half_width /. Float.abs truth))
              (pct (rel_err dbov.final.estimate truth))
          in
          Printf.printf "%-4s %-5s %-10s  %12.2f %s %s   %s %s\n%!"
            (Queries.name_of spec) label "limited" sysx_v w1 w2 d1 d2)
        sizes)
    specs

(* ======================================================================= *)
(* Ablations beyond the paper. *)
(* ======================================================================= *)

let abl_tau () =
  header "Ablation: optimizer success threshold tau (Q7 standard, 2GB)";
  let d = Data.get 0.02 in
  let q = Queries.build ~variant:Standard Queries.Q7 d in
  let reg = Queries.registry q in
  Printf.printf "%6s  %12s %14s %12s\n" "tau" "trial walks" "chosen start" "objective";
  List.iter
    (fun tau ->
      let prng = Wj_util.Prng.create seed in
      let r = Optimizer.choose ~config:{ Optimizer.tau; max_rounds = 5000 } q reg prng in
      let chosen = List.find (fun (p : Optimizer.plan_report) -> p.chosen) r.reports in
      Printf.printf "%6d  %12d %14s %12.3g\n%!" tau r.total_trial_walks
        q.Query.names.(r.best_plan.order.(0))
        chosen.objective)
    (if !quick then [ 25; 100 ] else [ 10; 50; 100; 400 ])

let abl_fanout () =
  header "Ablation: walk direction vs success rate (Figure 7 scenario)";
  let module T = Wj_storage.Table in
  let module S = Wj_storage.Schema in
  let mk name c1 c2 rows =
    let t =
      T.create ~name
        ~schema:(S.make [ { S.name = c1; ty = TInt }; { name = c2; ty = TInt } ])
        ()
    in
    List.iter (fun (a, b) -> ignore (T.insert t [| Int a; Int b |])) rows;
    t
  in
  (* Only 50 of r1's 5000 rows can join; every r3 row joins backwards. *)
  let r1 =
    mk "r1" "a" "b" (List.init 5000 (fun i -> (i, if i < 50 then i else 999_999)))
  in
  let r2 = mk "r2" "b" "c" (List.init 50 (fun i -> (i, i))) in
  let r3 = mk "r3" "c" "d" (List.init 50 (fun i -> (i, i))) in
  let q =
    Query.make
      ~tables:[ ("r1", r1); ("r2", r2); ("r3", r3) ]
      ~joins:
        [
          { left = (0, 1); right = (1, 0); op = Eq };
          { left = (1, 1); right = (2, 0); op = Eq };
        ]
      ~agg:Wj_stats.Estimator.Count ~expr:(Query.Const 1.0) ()
  in
  let reg = Wj_core.Registry.build_for_query q in
  Printf.printf "%-22s %12s %12s %10s\n" "plan" "successes" "walks" "rate%";
  List.iter
    (fun order ->
      match Walk_plan.of_order q reg order with
      | None -> ()
      | Some plan ->
        let prepared = Wj_core.Walker.prepare q reg plan in
        let prng = Wj_util.Prng.create seed in
        let succ = ref 0 in
        let n = 20_000 in
        for _ = 1 to n do
          match Wj_core.Walker.walk prepared prng with
          | Wj_core.Walker.Success _ -> incr succ
          | Wj_core.Walker.Failure _ -> ()
        done;
        Printf.printf "%-22s %12d %12d %10.2f\n%!" (Walk_plan.describe q plan) !succ n
          (pct (float_of_int !succ /. float_of_int n)))
    [ [| 0; 1; 2 |]; [| 2; 1; 0 |] ]

let abl_failfast () =
  header "Ablation: eager vs lazy non-tree edge checking (cyclic query)";
  let prng = Wj_util.Prng.create 17 in
  let module T = Wj_storage.Table in
  let module S = Wj_storage.Schema in
  let mk name c1 c2 n =
    let t =
      T.create ~name
        ~schema:(S.make [ { S.name = c1; ty = TInt }; { name = c2; ty = TInt } ])
        ()
    in
    for _ = 1 to n do
      ignore
        (T.insert t [| Int (Wj_util.Prng.int prng 40); Int (Wj_util.Prng.int prng 40) |])
    done;
    t
  in
  let f = mk "f" "a" "b" 20_000
  and g = mk "g" "b" "c" 20_000
  and h = mk "h" "c" "a" 20_000 in
  let q =
    Query.make
      ~tables:[ ("f", f); ("g", g); ("h", h) ]
      ~joins:
        [
          { left = (0, 1); right = (1, 0); op = Eq };
          { left = (1, 1); right = (2, 0); op = Eq };
          { left = (2, 1); right = (0, 0); op = Eq };
        ]
      ~agg:Wj_stats.Estimator.Count ~expr:(Query.Const 1.0) ()
  in
  let reg = Wj_core.Registry.build_for_query q in
  Printf.printf "%-8s %14s %14s\n" "mode" "walks/s" "CI% after 1s";
  List.iter
    (fun eager ->
      let out =
        online_run ~max_time:1.0 ~eager_checks:eager
          ~plan_choice:Online.First_enumerated q reg
      in
      Printf.printf "%-8s %14.0f %14.2f\n%!"
        (if eager then "eager" else "lazy")
        (float_of_int out.final.walks /. out.final.elapsed)
        (pct (out.final.half_width /. Float.abs out.final.estimate)))
    [ true; false ]

let abl_stratified () =
  header "Ablation: stratified vs plain group-by on skewed groups";
  (* One giant group and nine rare ones: the paper's motivating case for
     stratified sampling (Section 7).  Same walk budget for both drivers;
     the per-group relative CI is what stratification buys. *)
  let prng = Wj_util.Prng.create 3 in
  let module T = Wj_storage.Table in
  let module S = Wj_storage.Schema in
  let ta =
    let t =
      T.create ~name:"ta"
        ~schema:(S.make [ { S.name = "grp"; ty = TInt }; { name = "k"; ty = TInt } ])
        ()
    in
    for i = 0 to 19_999 do
      let group = if i < 19_000 then 0 else 1 + ((i - 19_000) / 100) in
      ignore (T.insert t [| Int group; Int (Wj_util.Prng.int prng 200) |])
    done;
    t
  in
  let tb =
    let t =
      T.create ~name:"tb"
        ~schema:(S.make [ { S.name = "k"; ty = TInt }; { name = "v"; ty = TInt } ])
        ()
    in
    for _ = 0 to 39_999 do
      ignore (T.insert t [| Int (Wj_util.Prng.int prng 200); Int (Wj_util.Prng.int prng 100) |])
    done;
    t
  in
  let q =
    Query.make
      ~tables:[ ("ta", ta); ("tb", tb) ]
      ~joins:[ { left = (0, 1); right = (1, 0); op = Eq } ]
      ~group_by:(Some (0, 0))
      ~agg:Wj_stats.Estimator.Sum ~expr:(Query.Col (1, 1)) ()
  in
  let reg = Wj_core.Registry.build_for_query q in
  Wj_core.Registry.add reg ~pos:0 ~column:0 (Wj_index.Index.build_ordered ta ~column:0);
  let walks = if !quick then 50_000 else 200_000 in
  let plain = online_run_group_by ~max_walks:walks ~max_time:60.0 q reg in
  let strat =
    Wj_core.Stratified.run ~seed ~allocation:Wj_core.Stratified.Adaptive ~max_walks:walks
      ~max_time:60.0 q reg
  in
  let rel (r : Online.report) =
    if Float.is_finite r.estimate && r.estimate <> 0.0 then
      pct (r.half_width /. Float.abs r.estimate)
    else nan
  in
  Printf.printf "%8s %10s  %14s %14s\n" "group" "rows" "plain CI%" "stratified CI%";
  List.iter
    (fun (g : Wj_core.Stratified.group_state) ->
      let plain_ci =
        match List.assoc_opt g.key plain.groups with
        | Some r -> Printf.sprintf "%14.2f" (rel r)
        | None -> Printf.sprintf "%14s" "(never hit)"
      in
      Printf.printf "%8s %10d  %s %14.2f\n"
        (Wj_storage.Value.to_display g.key)
        g.group_rows plain_ci (rel g.report))
    strat.strata

let abl_cardinality () =
  header "Ablation: cardinality-guided join order vs FROM order (exact execution)";
  (* Section 7: wander-join COUNT estimates of sub-join sizes feed a
     traditional optimizer.  Cost = tuples visited by the exact executor. *)
  let d = Data.get 0.02 in
  Printf.printf "%-4s  %16s %16s %16s  %s\n" "qry" "FROM order" "suggested" "saving"
    "order";
  List.iter
    (fun spec ->
      let q = Queries.build ~variant:Standard spec d in
      let reg = Queries.registry q in
      let naive = Exact.aggregate ~plan:(pg_plan q reg) q reg in
      let order, _ = Wj_core.Cardinality.suggest_order ~seed ~budget_walks:30_000 q reg in
      match Walk_plan.of_order q reg order with
      | None -> Printf.printf "%-4s  (suggested order not walkable)\n" (Queries.name_of spec)
      | Some plan ->
        let guided = Exact.aggregate ~plan q reg in
        Printf.printf "%-4s  %16d %16d %15.1f%%  %s\n%!" (Queries.name_of spec)
          naive.rows_visited guided.rows_visited
          (pct
             (1.0
             -. (float_of_int guided.rows_visited /. float_of_int naive.rows_visited)))
          (String.concat "->"
             (Array.to_list (Array.map (fun i -> q.Query.names.(i)) order))))
    specs

(* ======================================================================= *)
(* Observability overhead: walks/sec by sink mode. *)
(* ======================================================================= *)

let obs_bench () =
  header "Observability: walks/sec by sink mode (fixed PG plan, 2GB)";
  (* Pay-for-what-you-use check: the no-op sink must sit within noise of
     the plain run; metrics-only and full-event sinks show the real cost
     of counting and of the typed event stream. *)
  let d = Data.get 0.02 in
  let horizon = if !quick then 0.3 else 1.0 in
  let entries = ref [] in
  Printf.printf "%-4s  %12s %12s %12s %12s   (walks/sec)\n" "qry" "baseline" "noop"
    "metrics" "events";
  List.iter
    (fun spec ->
      let q = Queries.build ~variant:Barebone spec d in
      let reg = Queries.registry q in
      let plan = pg_plan q reg in
      let rate ?sink () =
        let out =
          online_run ~max_time:horizon ~plan_choice:(Online.Fixed plan) ?sink q
            reg
        in
        float_of_int out.final.walks /. out.final.elapsed
      in
      (* Best of 3 per configuration, reps interleaved round-robin after a
         shared warm-up: a single sequential pass is noisy enough that the
         no-op sink used to show a −14% "overhead" on Q10 — heap growth and
         cache warming favour whichever configuration runs last.  Round-robin
         spreads that drift evenly; the max of three is what the machine can
         actually do in each mode. *)
      ignore (rate ());
      let configs =
        [|
          (fun () -> rate ());
          (fun () -> rate ~sink:Wj_obs.Sink.noop ());
          (fun () ->
            rate ~sink:(Wj_obs.Sink.of_metrics (Wj_obs.Metrics.create ())) ());
          (fun () ->
            let m = Wj_obs.Metrics.create () in
            let seen = ref 0 in
            rate
              ~sink:(Wj_obs.Sink.make ~on_event:(fun _ -> incr seen) ~metrics:m ())
              ());
        |]
      in
      let best = Array.make (Array.length configs) 0.0 in
      for _ = 1 to 5 do
        Array.iteri
          (fun i f -> best.(i) <- Float.max best.(i) (f ()))
          configs
      done;
      let baseline = best.(0) in
      let noop = best.(1) in
      let metrics_rate = best.(2) in
      let events_rate = best.(3) in
      let overhead r = 100.0 *. (1.0 -. (r /. baseline)) in
      Printf.printf "%-4s  %12.0f %12.0f %12.0f %12.0f   (noop %+.1f%%, metrics %+.1f%%, events %+.1f%%)\n%!"
        (Queries.name_of spec) baseline noop metrics_rate events_rate (overhead noop)
        (overhead metrics_rate) (overhead events_rate);
      entries :=
        (Queries.name_of spec, baseline, noop, metrics_rate, events_rate) :: !entries)
    specs;
  (* Tiny-scale daemon run: does scraping /metrics in a tight loop while a
     query streams slow the query down?  Fixed walk budget, wall time to
     the final chunk, best of 3 each way. *)
  let scrape_walks = if !quick then 20_000 else 100_000 in
  let scrape_plain, scrape_loaded, scrape_count =
    let module Daemon = Wj_daemon.Daemon in
    let module Http = Wj_daemon.Http in
    let module Json = Wj_util.Json in
    let catalog = Generator.catalog (Data.get 0.005) in
    let body =
      Json.to_string
        (Json.Obj
           [
             ( "sql",
               Json.Str
                 "SELECT ONLINE COUNT(*) FROM orders, lineitem WHERE \
                  o_orderkey = l_orderkey" );
             ("seed", Json.Int 99);
             ("max_walks", Json.Int scrape_walks);
             ("time", Json.Float 600.0);
           ])
    in
    let run ~scrape =
      let daemon = Daemon.create ~quantum:256 ~max_live:4 ~port:0 catalog in
      Daemon.start daemon;
      let url = Daemon.url daemon in
      let stop = Atomic.make false in
      let scrapes = ref 0 in
      let scraper =
        if scrape then
          Some
            (Thread.create
               (fun () ->
                 (* 200 scrapes/s — orders of magnitude past any real
                    Prometheus cadence, but paced: a zero-delay loop
                    measures connection DoS, not scrape cost. *)
                 while not (Atomic.get stop) do
                   ignore (Http.fetch (url ^ "/metrics"));
                   incr scrapes;
                   Thread.delay 0.005
                 done)
               ())
        else None
      in
      let t0 = Unix.gettimeofday () in
      ignore (Http.fetch ~body (url ^ "/query"));
      let dt = Unix.gettimeofday () -. t0 in
      Atomic.set stop true;
      Option.iter Thread.join scraper;
      Daemon.stop daemon;
      (dt, !scrapes)
    in
    (* Warm-up (page in the catalog, JIT the first daemon through its
       cold path), then alternate plain/scraped so drift hits both. *)
    ignore (run ~scrape:false);
    let plain = ref infinity and loaded = ref infinity and scrapes = ref 0 in
    for _ = 1 to 3 do
      let d, _ = run ~scrape:false in
      if d < !plain then plain := d;
      let d, s = run ~scrape:true in
      if d < !loaded then (
        loaded := d;
        scrapes := s)
    done;
    (!plain, !loaded, !scrapes)
  in
  let scrape_overhead =
    100.0 *. ((scrape_loaded /. scrape_plain) -. 1.0)
  in
  Printf.printf
    "scrape-under-load: %d walks in %.3fs plain, %.3fs with %d /metrics \
     scrapes (%+.1f%%)\n%!"
    scrape_walks scrape_plain scrape_loaded scrape_count scrape_overhead;
  (* Machine-readable drop for regression tracking. *)
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "{\n  \"experiment\": \"obs\",\n  \"unit\": \"walks_per_sec\",\n  \"queries\": {\n";
  let entries = List.rev !entries in
  List.iteri
    (fun i (name, baseline, noop, metrics_rate, events_rate) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    %S: { \"baseline\": %.1f, \"noop\": %.1f, \"metrics\": %.1f, \
            \"events\": %.1f, \"noop_overhead_pct\": %.2f }%s\n"
           name baseline noop metrics_rate events_rate
           (100.0 *. (1.0 -. (noop /. baseline)))
           (if i = List.length entries - 1 then "" else ",")))
    entries;
  Buffer.add_string buf "  },\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"scrape_under_load\": { \"walks\": %d, \"plain_s\": %.4f, \
        \"scraped_s\": %.4f, \"scrapes\": %d, \"overhead_pct\": %.2f }\n"
       scrape_walks scrape_plain scrape_loaded scrape_count scrape_overhead);
  Buffer.add_string buf "}\n";
  let oc = open_out "BENCH_obs.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  [obs] wrote BENCH_obs.json\n%!"

(* ======================================================================= *)
(* Storage layout: walk and exact-scan throughput over the columnar store. *)
(* ======================================================================= *)

let layout_bench () =
  header "Layout: columnar-store throughput (standard queries, 2GB)";
  let d = Data.get 0.02 in
  let horizon = if !quick then 0.3 else 1.0 in
  let entries = ref [] in
  Printf.printf "%-4s  %14s %16s\n" "qry" "walks/sec" "exact rows/sec";
  List.iter
    (fun spec ->
      let q = Queries.build ~variant:Standard spec d in
      let reg = Queries.registry q in
      let plan = pg_plan q reg in
      let out =
        online_run ~max_time:horizon ~plan_choice:(Online.Fixed plan) q reg
      in
      let walk_rate = float_of_int out.final.walks /. out.final.elapsed in
      let exact, t_exact = Timer.time_it (fun () -> Exact.aggregate q reg) in
      let scan_rate = float_of_int exact.rows_visited /. t_exact in
      Printf.printf "%-4s  %14.0f %16.0f\n%!" (Queries.name_of spec) walk_rate
        scan_rate;
      entries := (Queries.name_of spec, walk_rate, scan_rate) :: !entries)
    specs;
  (* Machine-readable drop for regression tracking across layout changes. *)
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\n  \"experiment\": \"layout\",\n  \"queries\": {\n";
  let entries = List.rev !entries in
  List.iteri
    (fun i (name, w, s) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    %S: { \"walks_per_sec\": %.1f, \"exact_rows_per_sec\": %.1f }%s\n"
           name w s
           (if i = List.length entries - 1 then "" else ",")))
    entries;
  Buffer.add_string buf "  }\n}\n";
  let oc = open_out "BENCH_layout.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  [layout] wrote BENCH_layout.json\n%!"

(* ======================================================================= *)
(* Service layer: aggregate throughput and fairness across sessions. *)
(* ======================================================================= *)

let service_bench () =
  header "Service: scheduler throughput and fairness by session count (Q3 barebone)";
  (* Each session runs the same query shape under its own seed for a fixed
     wall-time budget; the scheduler multiplexes them over one shared
     registry.  Two things to watch: aggregate walks/sec (scheduling
     overhead vs a single session owning the loop) and the fairness
     spread (max-min)/mean of per-session walks when every session had
     the same time budget. *)
  let module Scheduler = Wj_service.Scheduler in
  let d = Data.get (if !quick then 0.01 else 0.02) in
  let horizon = if !quick then 0.3 else 1.0 in
  let q = Queries.build ~variant:Barebone Queries.Q3 d in
  let reg = Queries.registry q in
  let plan = pg_plan q reg in
  let entries = ref [] in
  Printf.printf "%10s  %14s %14s %12s\n" "sessions" "agg walks/sec" "per-session"
    "spread";
  List.iter
    (fun n ->
      let sched = Scheduler.create ~quantum:256 ~max_live:n () in
      let sessions =
        List.init n (fun i ->
            let cfg =
              Wj_core.Run_config.make ~seed:(seed + i) ~max_time:horizon
                ~plan_choice:(Wj_core.Run_config.Fixed plan) ()
            in
            Scheduler.submit sched cfg q reg)
      in
      let (), elapsed = Timer.time_it (fun () -> Scheduler.drain sched) in
      let walks =
        List.map
          (fun s ->
            match Scheduler.result s with
            | Some (Wj_core.Session.Scalar o) -> float_of_int o.final.walks
            | _ -> 0.0)
          sessions
      in
      let total = List.fold_left ( +. ) 0.0 walks in
      let mean = total /. float_of_int n in
      let mx = List.fold_left Float.max neg_infinity walks in
      let mn = List.fold_left Float.min infinity walks in
      let spread = if mean > 0.0 then (mx -. mn) /. mean else 0.0 in
      let rate = total /. elapsed in
      Printf.printf "%10d  %14.0f %14.0f %11.1f%%\n%!" n rate mean (pct spread);
      entries := (n, rate, mean, spread) :: !entries)
    [ 1; 4; 16 ];
  (* Machine-readable drop for regression tracking. *)
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "{\n  \"experiment\": \"service\",\n  \"unit\": \"walks_per_sec\",\n  \"fleets\": {\n";
  let entries = List.rev !entries in
  List.iteri
    (fun i (n, rate, mean, spread) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    \"sessions_%d\": { \"agg_walks_per_sec\": %.1f, \
            \"mean_walks_per_session\": %.1f, \"fairness_spread\": %.4f }%s\n"
           n rate mean spread
           (if i = List.length entries - 1 then "" else ",")))
    entries;
  Buffer.add_string buf "  }\n}\n";
  let oc = open_out "BENCH_service.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  [service] wrote BENCH_service.json\n%!"

(* ======================================================================= *)
(* Multicore: walks/sec of the domain-sharded scheduler. *)
(* ======================================================================= *)

let mcore_bench () =
  header "Multicore: walks/sec by scheduler domains";
  (* Fleets of 16 pinned walk-budget sessions drained on 1/2/4/N domains.
     Fixed plans and walk budgets: every cell does identical work, so
     walks/sec differences are pure scheduling effects.  The sharded drain
     is estimate-transparent (test_service pins that), so only throughput
     is interesting here. *)
  let module Scheduler = Wj_service.Scheduler in
  let d = Data.get (if !quick then 0.01 else 0.02) in
  let ncores = Stdlib.Domain.recommended_domain_count () in
  let domain_counts = List.sort_uniq compare [ 1; 2; 4; max 1 ncores ] in
  let fleet = 16 in
  let walks = if !quick then 1_500 else 10_000 in
  let mk_triangle () =
    let module T = Wj_storage.Table in
    let module S = Wj_storage.Schema in
    let rows = if !quick then 5_000 else 20_000 in
    let dom = if !quick then 20 else 40 in
    let prng = Wj_util.Prng.create 17 in
    let mk name c1 c2 =
      let t =
        T.create ~name
          ~schema:(S.make [ { S.name = c1; ty = TInt }; { name = c2; ty = TInt } ])
          ()
      in
      for _ = 1 to rows do
        ignore
          (T.insert t
             [| Int (Wj_util.Prng.int prng dom); Int (Wj_util.Prng.int prng dom) |])
      done;
      t
    in
    let f = mk "f" "a" "b" and g = mk "g" "b" "c" and h = mk "h" "c" "a" in
    Query.make
      ~tables:[ ("f", f); ("g", g); ("h", h) ]
      ~joins:
        [
          { left = (0, 1); right = (1, 0); op = Eq };
          { left = (1, 1); right = (2, 0); op = Eq };
          { left = (2, 1); right = (0, 0); op = Eq };
        ]
      ~agg:Wj_stats.Estimator.Count ~expr:(Query.Const 1.0) ()
  in
  let cases =
    let tpch spec =
      let q = Queries.build ~variant:Barebone spec d in
      (Queries.name_of spec, q, Queries.registry q)
    in
    let qt = mk_triangle () in
    [ tpch Queries.Q3; tpch Queries.Q7;
      ("triangle", qt, Wj_core.Registry.build_for_query qt) ]
  in
  let cell ~q ~reg ~plan ~domains =
    let sched = Scheduler.create ~quantum:256 ~max_live:fleet ~domains () in
    let sessions =
      List.init fleet (fun i ->
          let cfg =
            Wj_core.Run_config.make ~seed:(seed + i) ~max_walks:walks
              ~max_time:3600.0 ~plan_choice:(Wj_core.Run_config.Fixed plan) ()
          in
          Scheduler.submit sched ~pin:i cfg q reg)
    in
    let (), elapsed = Timer.time_it (fun () -> Scheduler.drain sched) in
    let total =
      List.fold_left
        (fun acc s ->
          match Scheduler.result s with
          | Some (Wj_core.Session.Scalar o) -> acc + o.Online.final.walks
          | _ -> acc)
        0 sessions
    in
    float_of_int total /. Float.max elapsed 1e-9
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"experiment\": \"mcore\",\n  \"unit\": \"walks_per_sec\",\n\
       \  \"cores\": %d,\n  \"fleet\": %d,\n  \"walks_per_session\": %d,\n\
       \  \"queries\": {\n"
       ncores fleet walks);
  List.iteri
    (fun qi (name, q, reg) ->
      let plan = pg_plan q reg in
      Printf.printf "%-9s %8s  %s\n" name "domains" "walks/sec";
      Buffer.add_string buf (Printf.sprintf "    %S: {" name);
      let rates =
        List.map
          (fun domains ->
            let r = cell ~q ~reg ~plan ~domains in
            Printf.printf "%-9s %8d  %10.0f\n%!" "" domains r;
            Buffer.add_string buf (Printf.sprintf " \"domains_%d\": %.0f," domains r);
            r)
          domain_counts
      in
      Buffer.add_string buf
        (Printf.sprintf " \"scaling_best_over_1\": %.2f }%s\n"
           (List.fold_left Float.max 0.0 rates /. Float.max (List.hd rates) 1e-9)
           (if qi = List.length cases - 1 then "" else ",")))
    cases;
  Buffer.add_string buf "  }\n}\n";
  let oc = open_out "BENCH_mcore.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  [mcore] wrote BENCH_mcore.json\n%!"

(* ======================================================================= *)
(* Flight recorder: walks/sec by recorder mode. *)
(* ======================================================================= *)

let trace_bench () =
  header "Flight recorder: walks/sec by recorder mode (fixed PG plan, 2GB)";
  (* The recorder's overhead ladder: off (plain run), timeseries-only
     (reports-only sink sampling counters into ring buffers), and full
     span tracing (a span per driver quantum plus per-probe walker
     spans).  Timeseries mode must sit within a few percent of the
     uninstrumented run — the recorder never subscribes to hot-path
     events, so its cost is the shared metrics registry plus O(reports)
     sampling. *)
  let module Run_config = Wj_core.Run_config in
  let module Recorder = Wj_obs.Recorder in
  let d = Data.get 0.02 in
  let horizon = if !quick then 0.3 else 1.0 in
  let entries = ref [] in
  Printf.printf "%-4s  %12s %12s %12s   (walks/sec)\n" "qry" "off" "timeseries"
    "tracing";
  List.iter
    (fun spec ->
      let q = Queries.build ~variant:Barebone spec d in
      let reg = Queries.registry q in
      let plan = pg_plan q reg in
      (* Machine drift across a multi-second bench is larger than the
         effect measured, so the modes run interleaved round-robin and
         each mode's rate is total walks over total elapsed across all
         repetitions — slow drift then cancels out of the overhead
         ratios instead of being charged to whichever mode ran last. *)
      let reps = if !quick then 1 else 5 in
      let one mk_recorder =
        let cfg =
          Run_config.make ~seed ~max_time:horizon
            ~plan_choice:(Run_config.Fixed plan) ?recorder:(mk_recorder ()) ()
        in
        let out = Online.run_session cfg q reg in
        (float_of_int out.final.walks, out.final.elapsed)
      in
      let modes =
        [|
          (fun () -> None);
          (fun () -> Some (Recorder.create ()));
          (fun () -> Some (Recorder.create ~tracing:true ()));
        |]
      in
      let walks = [| 0.0; 0.0; 0.0 |] and secs = [| 0.0; 0.0; 0.0 |] in
      for _ = 1 to reps do
        Array.iteri
          (fun i mk ->
            let w, s = one mk in
            walks.(i) <- walks.(i) +. w;
            secs.(i) <- secs.(i) +. s)
          modes
      done;
      let rate i = walks.(i) /. secs.(i) in
      let off = rate 0 and ts = rate 1 and tracing = rate 2 in
      let overhead r = 100.0 *. (1.0 -. (r /. off)) in
      Printf.printf
        "%-4s  %12.0f %12.0f %12.0f   (timeseries %+.1f%%, tracing %+.1f%%)\n%!"
        (Queries.name_of spec) off ts tracing (overhead ts) (overhead tracing);
      entries := (Queries.name_of spec, off, ts, tracing) :: !entries)
    specs;
  (* With no recorder the observability plumbing must be allocation-free:
     resolving the configured sink and testing event granularity — the
     exact gates the driver evaluates every tick — may not create a
     single minor word. *)
  let cfg = Run_config.make ~seed () in
  let live = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    let sink = Run_config.resolved_sink cfg in
    if Wj_obs.Sink.wants_events sink then incr live;
    if Wj_obs.Sink.wants_reports sink then incr live
  done;
  let off_words = Gc.minor_words () -. before in
  Printf.printf "  [trace] off-state sink gating: %.0f minor words / 100k checks%s\n%!"
    off_words
    (if off_words = 0.0 then " (allocation-free)" else "");
  if off_words > 0.0 then
    failwith
      (Printf.sprintf
         "recorder-off sink gating allocated %.0f minor words; expected 0" off_words);
  (* Machine-readable drop for regression tracking. *)
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "{\n  \"experiment\": \"trace\",\n  \"unit\": \"walks_per_sec\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"off_state_minor_words\": %.0f,\n  \"queries\": {\n" off_words);
  let entries = List.rev !entries in
  List.iteri
    (fun i (name, off, ts, tracing) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    %S: { \"off\": %.1f, \"timeseries\": %.1f, \"tracing\": %.1f, \
            \"timeseries_overhead_pct\": %.2f, \"tracing_overhead_pct\": %.2f }%s\n"
           name off ts tracing
           (100.0 *. (1.0 -. (ts /. off)))
           (100.0 *. (1.0 -. (tracing /. off)))
           (if i = List.length entries - 1 then "" else ",")))
    entries;
  Buffer.add_string buf "  }\n}\n";
  let oc = open_out "BENCH_trace.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  [trace] wrote BENCH_trace.json\n%!"

(* ======================================================================= *)
(* WCOJ substrate: pre-intersection reject suppression on cyclic walks,
   and the leapfrog exact executor against the nested loop. *)
(* ======================================================================= *)

let wcoj_bench () =
  header "WCOJ: constraint pre-intersection and leapfrog exact (triangle query)";
  let module T = Wj_storage.Table in
  let module S = Wj_storage.Schema in
  let mk_triangle rows dom =
    let prng = Wj_util.Prng.create 17 in
    let mk name c1 c2 =
      let t =
        T.create ~name
          ~schema:(S.make [ { S.name = c1; ty = TInt }; { name = c2; ty = TInt } ])
          ()
      in
      for _ = 1 to rows do
        ignore
          (T.insert t
             [| Int (Wj_util.Prng.int prng dom); Int (Wj_util.Prng.int prng dom) |])
      done;
      t
    in
    let f = mk "f" "a" "b" and g = mk "g" "b" "c" and h = mk "h" "c" "a" in
    Query.make
      ~tables:[ ("f", f); ("g", g); ("h", h) ]
      ~joins:
        [
          { left = (0, 1); right = (1, 0); op = Eq };
          { left = (1, 1); right = (2, 0); op = Eq };
          { left = (2, 1); right = (0, 0); op = Eq };
        ]
      ~agg:Wj_stats.Estimator.Count ~expr:(Query.Const 1.0) ()
  in
  (* Walk side: the abl-failfast shape, where hash-only walks reject ~97%
     of the time on the non-tree edge. *)
  let wrows = if !quick then 5_000 else 20_000 in
  let wdom = if !quick then 20 else 40 in
  let q = mk_triangle wrows wdom in
  let reg = Wj_core.Registry.build_for_query q in
  let plans =
    Walk_plan.enumerate ~max_plans:1 q reg
    |> List.concat_map (Walk_plan.intersect_variants q reg)
  in
  let base = List.hd plans in
  let variant = List.hd (List.rev plans) in
  let probe_walks = if !quick then 10_000 else 50_000 in
  let reject_rate plan =
    let prepared = Wj_core.Walker.prepare q reg plan in
    let prng = Wj_util.Prng.create seed in
    let fails = ref 0 in
    for _ = 1 to probe_walks do
      match Wj_core.Walker.walk prepared prng with
      | Wj_core.Walker.Success _ -> ()
      | Wj_core.Walker.Failure _ -> incr fails
    done;
    float_of_int !fails /. float_of_int probe_walks
  in
  let walks_to_ci plan =
    let out =
      online_run ~max_time:(if !quick then 10.0 else 30.0)
        ~max_walks:5_000_000 ~target:(Target.relative 0.01)
        ~plan_choice:(Online.Fixed plan) q reg
    in
    (out.final.walks, out.final.estimate, out.stopped_because = Online.Target_reached)
  in
  Printf.printf "%-20s %12s %14s %14s\n" "plan" "reject%" "walks to ±1%" "estimate";
  let measure plan =
    let rr = reject_rate plan in
    let walks, est, reached = walks_to_ci plan in
    Printf.printf "%-20s %12.2f %14s %14.0f\n%!" (Walk_plan.granularity plan)
      (pct rr)
      (if reached then string_of_int walks else Printf.sprintf "%d (cap)" walks)
      est;
    (rr, walks, est)
  in
  let rr_base, walks_base, est_base = measure base in
  let rr_isect, walks_isect, est_isect = measure variant in
  Printf.printf "  reject cut: %.1fx   walk cut: %.1fx\n%!"
    (rr_base /. Float.max rr_isect 1e-9)
    (float_of_int walks_base /. float_of_int (max walks_isect 1));
  (* Exact side: smaller triangle (the nested loop pays the full
     intermediate blow-up, ~n^2/dom row visits per start row). *)
  let erows = if !quick then 1_000 else 2_000 in
  let edom = if !quick then 25 else 40 in
  let qe = mk_triangle erows edom in
  let rege = Wj_core.Registry.build_for_query qe in
  let time_exact strategy =
    let t0 = Unix.gettimeofday () in
    let r = Exact.aggregate ~strategy qe rege in
    let dt = Unix.gettimeofday () -. t0 in
    (dt, r)
  in
  let nl_dt, nl = time_exact Exact.Nested_loop in
  let lf_dt, lf = time_exact Exact.Leapfrog in
  assert (nl.join_size = lf.join_size);
  Printf.printf "%-20s %12s %14s %14s\n" "exact strategy" "seconds" "rows visited"
    "rows/sec";
  List.iter
    (fun (name, dt, (r : Exact.result)) ->
      Printf.printf "%-20s %12.3f %14d %14.0f\n%!" name dt r.rows_visited
        (float_of_int r.rows_visited /. dt))
    [ ("nested-loop", nl_dt, nl); ("leapfrog", lf_dt, lf) ];
  Printf.printf "  triangles: %d   leapfrog speedup: %.1fx\n%!" lf.join_size
    (nl_dt /. Float.max lf_dt 1e-9);
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"experiment\": \"wcoj\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"walk_triangle\": { \"rows\": %d, \"domain\": %d },\n" wrows
       wdom);
  Buffer.add_string buf "  \"walks\": {\n";
  Buffer.add_string buf
    (Printf.sprintf
       "    \"hash\": { \"reject_rate\": %.4f, \"walks_to_1pct\": %d, \"estimate\": \
        %.1f },\n"
       rr_base walks_base est_base);
  Buffer.add_string buf
    (Printf.sprintf
       "    \"trie_intersect\": { \"reject_rate\": %.6f, \"walks_to_1pct\": %d, \
        \"estimate\": %.1f },\n"
       rr_isect walks_isect est_isect);
  Buffer.add_string buf
    (Printf.sprintf "    \"reject_cut\": %.1f,\n" (rr_base /. Float.max rr_isect 1e-9));
  Buffer.add_string buf
    (Printf.sprintf "    \"walk_cut\": %.1f\n  },\n"
       (float_of_int walks_base /. float_of_int (max walks_isect 1)));
  Buffer.add_string buf
    (Printf.sprintf "  \"exact_triangle\": { \"rows\": %d, \"domain\": %d },\n" erows
       edom);
  Buffer.add_string buf "  \"exact\": {\n";
  Buffer.add_string buf
    (Printf.sprintf
       "    \"nested_loop\": { \"seconds\": %.4f, \"rows_visited\": %d },\n" nl_dt
       nl.rows_visited);
  Buffer.add_string buf
    (Printf.sprintf "    \"leapfrog\": { \"seconds\": %.4f, \"rows_visited\": %d },\n"
       lf_dt lf.rows_visited);
  Buffer.add_string buf
    (Printf.sprintf "    \"join_size\": %d,\n    \"speedup\": %.1f\n  }\n}\n"
       lf.join_size
       (nl_dt /. Float.max lf_dt 1e-9));
  let oc = open_out "BENCH_wcoj.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  [wcoj] wrote BENCH_wcoj.json\n%!"

(* ======================================================================= *)
(* External memory: the paged backend under shrinking buffer pools. *)
(* ======================================================================= *)

(* Walks/sec and time-to-±1%-CI with the pool at 100% / 25% / 5% of the
   dataset's data pages, plus the measured fault count against the iosim
   cost-model prediction (the old simulation is the oracle for the real
   pager).  Writes BENCH_extmem.json. *)
let extmem_bench () =
  let module Backend = Wj_storage.Backend in
  let module Buffer_pool = Wj_storage.Buffer_pool in
  let module Table = Wj_storage.Table in
  header "External memory: paged backend vs buffer pool size (Q3)";
  let d = Data.get (if !quick then 0.01 else 0.02) in
  let spec = Queries.Q3 in
  let q = Queries.build ~variant:Standard spec d in
  let tables = Array.to_list q.Query.tables in
  let distinct =
    List.fold_left
      (fun acc t -> if List.memq t acc then acc else t :: acc)
      [] tables
  in
  let rpp = Cost_model.default.Cost_model.rows_per_page in
  let data_pages t =
    Wj_storage.Schema.arity (Table.schema t) * ((Table.length t + rpp - 1) / rpp)
  in
  let total_pages = List.fold_left (fun acc t -> acc + data_pages t) 0 distinct in
  Printf.printf "  dataset: %d column-segment pages (%d bytes each)\n%!" total_pages
    Backend.page_bytes;
  let dir = Filename.temp_dir "wj_extmem_bench" "" in
  let cap = if !quick then 5.0 else 20.0 in
  let oracle_walks = if !quick then 5_000 else 20_000 in
  let fracs = [ ("100pct", 1.0); ("25pct", 0.25); ("5pct", 0.05) ] in
  Printf.printf "%-8s %10s %12s %10s %12s %9s %11s %11s %7s\n" "pool" "pages"
    "t to ±1%" "walks" "walks/sec" "hit%" "faults" "predicted" "ratio";
  let rows =
    List.map
      (fun (label, frac) ->
        let pool_pages =
          max 4 (int_of_float (Float.round (frac *. float_of_int total_pages)))
        in
        let ptables, pool =
          Backend.prepare_tables (Backend.Paged { dir; pool_pages }) tables
        in
        let pool = Option.get pool in
        let pq = { q with Query.tables = Array.of_list ptables } in
        let reg = Queries.registry pq in
        (* Index builds scanned every segment; measure runs from cold. *)
        Buffer_pool.clear pool;
        let out =
          online_run ~max_time:cap ~target:(Target.relative 0.01)
            ~plan_choice:Online.First_enumerated pq reg
        in
        let elapsed = out.final.elapsed in
        let walks_per_sec = float_of_int out.final.walks /. Float.max elapsed 1e-9 in
        let hit_rate =
          float_of_int (Buffer_pool.hits pool)
          /. float_of_int (max 1 (Buffer_pool.accesses pool))
        in
        (* Fault oracle: replay a fixed walk budget on both sides.  The
           in-memory run feeds the walker's row accesses into the iosim
           cost model; the paged run counts real segment faults. *)
        let reg_mem = Queries.registry q in
        let sim = Sim.create ~pool_pages ~clock:(Timer.virtual_ ()) () in
        ignore
          (online_run ~max_time:infinity ~max_walks:oracle_walks
             ~plan_choice:Online.First_enumerated ~sink:(Sim.sink sim) q reg_mem);
        let predicted = Buffer_pool.misses (Sim.pool sim) in
        Buffer_pool.clear pool;
        ignore
          (online_run ~max_time:infinity ~max_walks:oracle_walks
             ~plan_choice:Online.First_enumerated pq reg);
        let measured = Buffer_pool.misses pool in
        let ratio = float_of_int measured /. float_of_int (max 1 predicted) in
        Printf.printf "%-8s %10d %12s %10d %12.0f %9.1f %11d %11d %7.2f\n%!" label
          pool_pages
          (fmt_time ~cap elapsed)
          out.final.walks walks_per_sec (pct hit_rate) measured predicted ratio;
        (label, pool_pages, elapsed, out.final.walks, walks_per_sec, hit_rate,
         measured, predicted, ratio))
      fracs
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n  \"experiment\": \"extmem\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"query\": \"%s\",\n  \"dataset_pages\": %d,\n"
       (Queries.name_of spec) total_pages);
  Buffer.add_string buf
    (Printf.sprintf "  \"page_bytes\": %d,\n  \"oracle_walks\": %d,\n"
       Backend.page_bytes oracle_walks);
  Buffer.add_string buf "  \"pools\": [\n";
  List.iteri
    (fun i (label, pages, t, walks, wps, hr, measured, predicted, ratio) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"label\": \"%s\", \"pool_pages\": %d, \"time_to_1pct\": %.4f, \
            \"walks\": %d, \"walks_per_sec\": %.0f, \"hit_rate\": %.4f, \
            \"faults\": %d, \"predicted_faults\": %d, \
            \"measured_over_predicted\": %.3f }%s\n"
           label pages t walks wps hr measured predicted ratio
           (if i = List.length rows - 1 then "" else ",")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out "BENCH_extmem.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  [extmem] wrote BENCH_extmem.json\n%!"

(* ======================================================================= *)
(* Daemon: open-loop load against the HTTP front end. *)
(* ======================================================================= *)

(* Open-loop: each client has a *scheduled* arrival time and latency is
   measured from that schedule, not from when the thread got around to
   sending — the standard guard against coordinated omission.  Every
   request asks for a ±1% relative CI (the session self-terminates on
   target), so time-to-target IS the request latency for completed
   queries.  Seeds differ per client, so each request is real work; a
   separate pass measures the cache-hit fast path. *)

let serve_load_bench () =
  header "Daemon: open-loop HTTP load, time to ±1% CI (Q3 chain, loopback)";
  let module Daemon = Wj_daemon.Daemon in
  let module Http = Wj_daemon.Http in
  let module Json = Wj_util.Json in
  let d = Data.get (if !quick then 0.005 else 0.01) in
  let catalog = Generator.catalog d in
  let sql =
    "SELECT ONLINE SUM(l_quantity) FROM orders, lineitem WHERE o_orderkey = \
     l_orderkey"
  in
  let levels = if !quick then [ 5; 20 ] else [ 10; 100; 1000 ] in
  let time_cap = if !quick then 10.0 else 60.0 in
  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then nan
    else sorted.(min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1))
  in
  let body ~seed' =
    Json.to_string
      (Json.Obj
         [
           ("sql", Json.Str sql);
           ("seed", Json.Int seed');
           ("target_pct", Json.Float 1.0);
           ("time", Json.Float time_cap);
         ])
  in
  (* One client: POST the query, watch the stream, record when the CI
     first crosses ±1% and how the request ended. *)
  let run_client url ~seed' =
    let t_ci = ref None in
    let status = ref "error" in
    let partial = Buffer.create 256 in
    let jstr name j = Option.bind (Json.member name j) Json.to_str in
    let jfloat name j = Option.bind (Json.member name j) Json.to_float in
    let on_line line =
      match Json.parse line with
      | j -> (
        match jstr "type" j with
        | Some "progress" when !t_ci = None -> (
          match (jfloat "estimate" j, jfloat "half_width" j) with
          | Some est, Some hw when est <> 0.0 && hw /. Float.abs est <= 0.01 ->
            t_ci := Some (Unix.gettimeofday ())
          | _ -> ())
        | Some "final" ->
          status := Option.value (jstr "status" j) ~default:"error"
        | _ -> ())
      | exception _ -> ()
    in
    let on_chunk data =
      Buffer.add_string partial data;
      let rec drain () =
        let s = Buffer.contents partial in
        match String.index_opt s '\n' with
        | None -> ()
        | Some i ->
          Buffer.clear partial;
          Buffer.add_string partial (String.sub s (i + 1) (String.length s - i - 1));
          on_line (String.sub s 0 i);
          drain ()
      in
      drain ()
    in
    match Http.fetch ~body:(body ~seed') ~on_chunk (url ^ "/query") with
    | { Http.status = 200; _ } -> (!status, !t_ci)
    | { Http.status = 429; _ } -> ("rejected", None)
    | _ -> ("error", None)
    | exception _ -> ("error", None)
  in
  let entries = ref [] in
  Printf.printf "%8s %9s %9s %8s %9s %9s %9s\n" "clients" "completed" "rejected"
    "no_ci" "p50_s" "p95_s" "p99_s";
  List.iter
    (fun n ->
      (* A bounded queue so the 1000-client burst actually exercises load
         shedding (429 + Retry-After) instead of queueing forever. *)
      let daemon =
        Daemon.create ~quantum:256 ~max_live:4 ~max_queued:256 ~port:0 catalog
      in
      Daemon.start daemon;
      let url = Daemon.url daemon in
      let mu = Mutex.create () in
      let results = ref [] in
      let t0 = Unix.gettimeofday () +. 0.05 in
      (* Arrivals spread uniformly over one second: an n req/s open-loop
         burst, whatever the server's pace. *)
      let threads =
        List.init n (fun i ->
            Thread.create
              (fun () ->
                let arrival = t0 +. (float_of_int i /. float_of_int n) in
                let now = Unix.gettimeofday () in
                if arrival > now then Thread.delay (arrival -. now);
                let status, t_ci = run_client url ~seed':(seed + i) in
                let lat =
                  Option.map (fun t -> t -. arrival) t_ci
                in
                Mutex.protect mu (fun () -> results := (status, lat) :: !results))
              ())
      in
      List.iter Thread.join threads;
      Daemon.stop daemon;
      let results = !results in
      let completed =
        List.length (List.filter (fun (s, _) -> s = "done") results)
      in
      let rejected =
        List.length (List.filter (fun (s, _) -> s = "rejected") results)
      in
      let lats =
        List.filter_map (fun ((_ : string), l) -> l) results |> Array.of_list
      in
      Array.sort compare lats;
      (* Completed but never crossed ±1% inside the time cap. *)
      let no_ci = List.length results - Array.length lats - rejected in
      let p50 = percentile lats 50.0
      and p95 = percentile lats 95.0
      and p99 = percentile lats 99.0 in
      Printf.printf "%8d %9d %9d %8d %9.3f %9.3f %9.3f\n%!" n completed rejected
        no_ci p50 p95 p99;
      entries := (n, completed, rejected, no_ci, p50, p95, p99) :: !entries)
    levels;
  (* Cache-hit fast path: the same statement+seed twice — first run pays
     for the walks, every later one is a lookup. *)
  let daemon = Daemon.create ~quantum:256 ~max_live:4 ~port:0 catalog in
  Daemon.start daemon;
  let url = Daemon.url daemon in
  ignore (run_client url ~seed':seed);
  let hit_lats =
    Array.init 20 (fun _ ->
        let t = Unix.gettimeofday () in
        ignore (run_client url ~seed':seed);
        Unix.gettimeofday () -. t)
  in
  Daemon.stop daemon;
  Array.sort compare hit_lats;
  let hit_p50 = percentile hit_lats 50.0 in
  Printf.printf "  cache hit p50: %.1f us\n%!" (hit_p50 *. 1e6);
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "{\n  \"experiment\": \"serve_load\",\n  \"unit\": \"seconds_to_1pct_ci\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"cache_hit_p50_us\": %.1f,\n  \"levels\": {\n"
       (hit_p50 *. 1e6));
  let entries = List.rev !entries in
  List.iteri
    (fun i (n, completed, rejected, no_ci, p50, p95, p99) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    \"clients_%d\": { \"issued\": %d, \"completed\": %d, \
            \"rejected\": %d, \"no_ci\": %d, \"p50_s\": %.4f, \"p95_s\": %.4f, \
            \"p99_s\": %.4f }%s\n"
           n n completed rejected no_ci p50 p95 p99
           (if i = List.length entries - 1 then "" else ",")))
    entries;
  Buffer.add_string buf "  }\n}\n";
  let oc = open_out "BENCH_serve_load.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "  [serve_load] wrote BENCH_serve_load.json\n%!"

(* ======================================================================= *)
(* Bechamel micro-benchmarks. *)
(* ======================================================================= *)

let micro () =
  header "Micro-benchmarks (bechamel, ns per operation)";
  let open Bechamel in
  let d = Data.get 0.01 in
  let q = Queries.build ~variant:Barebone Queries.Q3 d in
  let reg = Queries.registry q in
  let plan = List.hd (Walk_plan.enumerate ~max_plans:1 q reg) in
  let prepared = Wj_core.Walker.prepare q reg plan in
  let prng = Wj_util.Prng.create 3 in
  let est = Wj_stats.Estimator.create Wj_stats.Estimator.Sum in
  let btree = Wj_index.Btree.create () in
  for i = 0 to 99_999 do
    Wj_index.Btree.insert btree ~key:(i * 7 mod 65536) ~value:i
  done;
  let hash = Wj_index.Hash_index.build d.Generator.lineitem ~column:0 in
  let tests =
    Test.make_grouped ~name:"wander-join"
      [
        Test.make ~name:"random walk (Q3 barebone)"
          (Staged.stage (fun () -> ignore (Wj_core.Walker.walk prepared prng)));
        Test.make ~name:"estimator add"
          (Staged.stage (fun () -> Wj_stats.Estimator.add est ~u:1234.5 ~v:42.0));
        Test.make ~name:"btree count_range"
          (Staged.stage (fun () ->
               ignore (Wj_index.Btree.count_range btree ~lo:100 ~hi:5000)));
        Test.make ~name:"btree sample_range (Olken)"
          (Staged.stage (fun () ->
               ignore (Wj_index.Btree.sample_range btree prng ~lo:100 ~hi:5000)));
        Test.make ~name:"hash index probe"
          (Staged.stage (fun () -> ignore (Wj_index.Hash_index.count hash 123)));
        Test.make ~name:"prng int"
          (Staged.stage (fun () -> ignore (Wj_util.Prng.int prng 1_000_000)));
      ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) () in
  let results = Benchmark.all cfg [ instance ] tests in
  let analyzed =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      instance results
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ ns ] -> rows := (name, ns) :: !rows
      | Some _ | None -> rows := (name, nan) :: !rows)
    analyzed;
  List.iter
    (fun (name, ns) -> Printf.printf "  %-42s %12.1f ns/op\n" name ns)
    (List.sort compare !rows)

(* ======================================================================= *)

let experiments =
  [
    ("fig8", fig8);
    ("fig9", fig9);
    ("tab1", tab1);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("tab2", tab2);
    ("tab3", tab3);
    ("abl-tau", abl_tau);
    ("abl-fanout", abl_fanout);
    ("abl-failfast", abl_failfast);
    ("abl-strat", abl_stratified);
    ("abl-card", abl_cardinality);
    ("obs", obs_bench);
    ("layout", layout_bench);
    ("service", service_bench);
    ("mcore", mcore_bench);
    ("trace", trace_bench);
    ("wcoj", wcoj_bench);
    ("extmem", extmem_bench);
    ("serve_load", serve_load_bench);
    ("micro", micro);
  ]

let () =
  let only = ref [] in
  let list_only = ref false in
  let args =
    [
      ("--only", Arg.String (fun s -> only := s :: !only), "ID run a single experiment");
      ("--quick", Arg.Set quick, " reduced sizes and time caps");
      ("--list", Arg.Set list_only, " list experiment ids");
    ]
  in
  Arg.parse args
    (fun s -> only := s :: !only)
    "bench/main.exe [--quick] [--only ID] [--list]";
  if !list_only then begin
    List.iter (fun (id, _) -> print_endline id) experiments;
    exit 0
  end;
  let to_run =
    if !only = [] then experiments
    else List.filter (fun (id, _) -> List.mem id !only) experiments
  in
  if to_run = [] then begin
    Printf.eprintf "unknown experiment(s); use --list\n";
    exit 1
  end;
  let t0 = Unix.gettimeofday () in
  List.iter (fun (_, f) -> f ()) to_run;
  Printf.printf "\n[bench] completed in %.1fs\n" (Unix.gettimeofday () -. t0)
