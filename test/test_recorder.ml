(* Flight-recorder tests: Timeseries decimation invariants, Trace span
   nesting across driver interrupt/resume, recorder transparency
   (bit-for-bit fixed-seed results with the recorder on), the TPC-H Q3
   convergence acceptance (CI decay fit + exact walk attribution), and
   the per-session scoped-gauge JSON round trip. *)

module Timeseries = Wj_obs.Timeseries
module Trace = Wj_obs.Trace
module Convergence = Wj_obs.Convergence
module Recorder = Wj_obs.Recorder
module Metrics = Wj_obs.Metrics
module Snapshot = Wj_obs.Snapshot
module Sink = Wj_obs.Sink
module Event = Wj_obs.Event
module Query = Wj_core.Query
module Registry = Wj_core.Registry
module Online = Wj_core.Online
module Engine = Wj_core.Engine
module Run_config = Wj_core.Run_config
module Scheduler = Wj_service.Scheduler
module Table = Wj_storage.Table
module Schema = Wj_storage.Schema
module Value = Wj_storage.Value
module Timer = Wj_util.Timer
module Json = Wj_util.Json
module Estimator = Wj_stats.Estimator

(* ---- data builders ----------------------------------------------------- *)

let int_table name cols rows =
  let schema =
    Schema.make (List.map (fun c -> { Schema.name = c; ty = Value.TInt }) cols)
  in
  let t = Table.create ~name ~schema () in
  List.iter
    (fun r ->
      ignore (Table.insert t (Array.of_list (List.map (fun x -> Value.Int x) r))))
    rows;
  t

let chain_query () =
  let r1 =
    int_table "r1" [ "a"; "b" ]
      [ [ 1; 10 ]; [ 2; 10 ]; [ 3; 20 ]; [ 4; 30 ]; [ 5; 30 ]; [ 6; 40 ]; [ 7; 50 ] ]
  in
  let r2 =
    int_table "r2" [ "b"; "c" ]
      [ [ 10; 100 ]; [ 10; 200 ]; [ 20; 200 ]; [ 30; 300 ]; [ 40; 300 ]; [ 40; 400 ];
        [ 99; 999 ] ]
  in
  let r3 =
    int_table "r3" [ "c"; "d" ]
      [ [ 100; 7 ]; [ 200; 11 ]; [ 200; 13 ]; [ 300; 17 ]; [ 400; 19 ]; [ 500; 23 ] ]
  in
  Query.make
    ~tables:[ ("r1", r1); ("r2", r2); ("r3", r3) ]
    ~joins:
      [
        { left = (0, 1); right = (1, 0); op = Eq };
        { left = (1, 1); right = (2, 0); op = Eq };
      ]
    ~agg:Estimator.Sum ~expr:(Col (2, 1)) ()

(* ---- Timeseries invariants --------------------------------------------- *)

let ts_capacity_bound =
  QCheck.Test.make ~name:"retained points never exceed capacity" ~count:200
    QCheck.(pair (int_range 2 64) (int_range 0 2_000))
    (fun (capacity, pushes) ->
      let ts = Timeseries.create ~capacity () in
      for i = 1 to pushes do
        Timeseries.push ts ~x:(float_of_int i) ~y:(float_of_int (i * i))
      done;
      let a = Timeseries.to_array ts in
      Array.length a <= Timeseries.capacity ts
      && Array.length a = Timeseries.length ts
      && Timeseries.pushes ts = pushes)

let ts_newest_retained =
  QCheck.Test.make ~name:"newest push is always the last retained point" ~count:200
    QCheck.(pair (int_range 2 32) (int_range 1 3_000))
    (fun (capacity, pushes) ->
      let ts = Timeseries.create ~capacity () in
      for i = 1 to pushes do
        Timeseries.push ts ~x:(float_of_int i) ~y:(float_of_int (2 * i))
      done;
      let a = Timeseries.to_array ts in
      Array.length a > 0
      && a.(Array.length a - 1) = (float_of_int pushes, float_of_int (2 * pushes))
      && Timeseries.last ts = Some (float_of_int pushes, float_of_int (2 * pushes)))

let ts_monotone_x =
  QCheck.Test.make ~name:"decimation preserves push order" ~count:100
    QCheck.(pair (int_range 2 32) (int_range 0 2_000))
    (fun (capacity, pushes) ->
      let ts = Timeseries.create ~capacity () in
      for i = 1 to pushes do
        Timeseries.push ts ~x:(float_of_int i) ~y:0.0
      done;
      let a = Timeseries.to_array ts in
      let ok = ref true in
      for i = 1 to Array.length a - 1 do
        if fst a.(i) <= fst a.(i - 1) then ok := false
      done;
      !ok)

(* ---- Trace nesting across interrupt/resume ------------------------------ *)

(* Drive one session in quanta, interrupting part-way: every advance call
   must bracket its span, so depth returns to zero and nothing is
   unbalanced no matter where the loop stops. *)
let trace_nesting_balanced =
  QCheck.Test.make ~name:"span depth balances across advance/interrupt" ~count:50
    QCheck.(pair (int_range 1 64) (int_range 0 20))
    (fun (max_steps, interrupt_after) ->
      let trace = Trace.create ~clock:(Timer.virtual_ ()) () in
      let sink = Sink.make ~trace () in
      let q = chain_query () in
      let reg = Registry.build_for_query q in
      let cfg =
        Run_config.make ~seed:11 ~max_walks:1_000 ~max_time:60.0
          ~plan_choice:Run_config.First_enumerated ~sink ()
      in
      let s = Online.start_session cfg q reg in
      let advances = ref 0 in
      let rec go n =
        incr advances;
        match Online.Session.advance s ~max_steps with
        | Some _ -> ()
        | None ->
          if n = interrupt_after then begin
            Online.Session.interrupt s Engine.Driver.Cancelled;
            (* one more advance after the interrupt: must return instantly
               and still bracket its span *)
            incr advances;
            ignore (Online.Session.advance s ~max_steps)
          end
          else go (n + 1)
      in
      go 0;
      let advance_count =
        match List.assoc_opt "driver.advance" (Trace.totals trace) with
        | Some (_, n) -> n
        | None -> 0
      in
      Trace.depth trace = 0 && Trace.dropped trace = 0
      && advance_count = !advances)

let test_trace_unbalanced_end () =
  let tr = Trace.create ~clock:(Timer.virtual_ ()) () in
  Trace.span_end tr ();
  Alcotest.(check int) "depth floors at zero" 0 (Trace.depth tr);
  Alcotest.(check int) "unbalanced end counted as drop" 1 (Trace.dropped tr);
  Trace.span_begin tr "a";
  Trace.span_begin tr "b";
  Trace.span_end tr ();
  Alcotest.(check int) "nested depth" 1 (Trace.depth tr)

let test_trace_json_shape () =
  let clock = Timer.virtual_ () in
  let tr = Trace.create ~clock () in
  Trace.span_begin tr ~cat:"t" "outer";
  Timer.advance clock 0.25;
  Trace.instant tr "mark";
  Trace.span_end tr ~cat:"t" ();
  Trace.complete tr ~dur:0.125 "io";
  let json = Trace.to_json tr in
  let has sub =
    let n = String.length json and m = String.length sub in
    let rec go i = i + m <= n && (String.sub json i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "traceEvents key" true (has "\"traceEvents\"");
  Alcotest.(check bool) "begin phase" true (has "\"ph\":\"B\"");
  Alcotest.(check bool) "end phase" true (has "\"ph\":\"E\"");
  Alcotest.(check bool) "instant phase" true (has "\"ph\":\"i\"");
  Alcotest.(check bool) "complete phase" true (has "\"ph\":\"X\"");
  match List.assoc_opt "outer" (Trace.totals tr) with
  | Some (seconds, count) ->
    Alcotest.(check int) "one outer span" 1 count;
    Alcotest.(check (float 1e-9)) "credited duration" 0.25 seconds
  | None -> Alcotest.fail "outer span missing from totals"

(* ---- recorder transparency ---------------------------------------------- *)

let test_recorder_transparency () =
  (* Same fixed seed and walk budget, recorder off vs on (with tracing):
     the recorder must not consume a single PRNG draw, so the estimates
     agree bit for bit. *)
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let base = Run_config.make ~seed:99 ~max_walks:4_000 ~max_time:60.0 () in
  let plain = Online.run_session base q reg in
  let recorder = Recorder.create ~tracing:true () in
  let recorded = Online.run_session (Run_config.with_recorder base recorder) q reg in
  Alcotest.(check int) "same walks" plain.Online.final.walks
    recorded.Online.final.walks;
  Alcotest.(check bool)
    "bit-for-bit estimate" true
    (Int64.equal
       (Int64.bits_of_float plain.Online.final.estimate)
       (Int64.bits_of_float recorded.Online.final.estimate));
  Alcotest.(check bool)
    "bit-for-bit half-width" true
    (Int64.equal
       (Int64.bits_of_float plain.Online.final.half_width)
       (Int64.bits_of_float recorded.Online.final.half_width))

(* ---- convergence acceptance (TPC-H Q3) ---------------------------------- *)

let test_q3_convergence () =
  let d = Wj_tpch.Generator.generate ~sf:0.002 ~seed:3 () in
  let q = Wj_tpch.Queries.build ~variant:Wj_tpch.Queries.Standard Wj_tpch.Queries.Q3 d in
  let reg = Wj_tpch.Queries.registry q in
  let recorder = Recorder.create () in
  (* report_every 0.0 reports after every walk: the CI trajectory is a
     deterministic function of the walk count, not of wall time.  The walk
     budget must clear the optimizer's trial phase (≈13k walks for Q3 at
     this scale) so the main loop actually runs. *)
  let cfg =
    Run_config.make ~seed:5 ~max_walks:30_000 ~max_time:600.0 ~report_every:0.0
      ~recorder ()
  in
  let out = Online.run_session cfg q reg in
  let c = Recorder.convergence recorder ~scope:"" in
  let ci = Convergence.ci_series c in
  Alcotest.(check bool) "CI trajectory recorded" true (Array.length ci > 10);
  (match Convergence.fit c with
  | None -> Alcotest.fail "no decay fit from a 4k-walk trajectory"
  | Some f ->
    Alcotest.(check bool)
      (Printf.sprintf "fitted exponent %.3f is a decay" f.Convergence.exponent)
      true
      (f.Convergence.exponent < -0.1 && f.Convergence.exponent > -1.5));
  let attrib = Convergence.attribution c in
  Alcotest.(check bool) "every candidate plan attributed" true
    (List.length attrib >= 1);
  let attempts = List.fold_left (fun a x -> a + x.Convergence.attempts) 0 attrib in
  Alcotest.(check int) "attribution sums to session walks" out.Online.final.walks
    attempts;
  Alcotest.(check int) "total_attempts agrees" out.Online.final.walks
    (Convergence.total_attempts c);
  (* The trajectory's last point is pinned to the final CI. *)
  match Convergence.series c |> Timeseries.last with
  | Some (walks, hw) ->
    Alcotest.(check int) "last CI point at final walks" out.Online.final.walks
      (int_of_float walks);
    Alcotest.(check bool) "last CI point is final half-width" true
      (Int64.equal (Int64.bits_of_float hw)
         (Int64.bits_of_float out.Online.final.half_width))
  | None -> Alcotest.fail "empty CI series"

let test_convergence_credit_and_stall () =
  let c = Convergence.create () in
  Convergence.register_plan c "good";
  Convergence.register_plan c "stalled";
  for i = 1 to 100 do
    Convergence.observe c ~plan:"good" ~success:true (float_of_int (i mod 7))
  done;
  for _ = 1 to 100 do
    Convergence.observe c ~plan:"stalled" ~success:false 0.0
  done;
  Convergence.credit c ~plan:"good" ~attempts:900 ~successes:850;
  Alcotest.(check int) "attempts accumulate" 1_100 (Convergence.total_attempts c);
  Alcotest.(check (list string)) "stall detection" [ "stalled" ]
    (Convergence.stalled c);
  Alcotest.check_raises "invalid credit rejected"
    (Invalid_argument "Convergence.credit: successes > attempts") (fun () ->
      Convergence.credit c ~plan:"good" ~attempts:1 ~successes:2)

(* ---- scheduled sessions: scoped recording + gauge round trip ------------- *)

let test_scheduled_scopes_and_gauges () =
  let q = chain_query () in
  let reg = Registry.build_for_query q in
  let recorder = Recorder.create () in
  let sched =
    Scheduler.create ~quantum:64 ~max_live:4 ~sink:(Recorder.sink recorder)
      ~clock:(Timer.virtual_ ()) ()
  in
  let cfg seed =
    Run_config.make ~seed ~max_walks:2_000 ~max_time:60.0
      ~plan_choice:Run_config.First_enumerated ~recorder ()
  in
  let s0 = Scheduler.submit sched (cfg 1) q reg in
  let s1 = Scheduler.submit sched (cfg 2) q reg in
  Scheduler.drain sched;
  let out s =
    match Scheduler.result s with
    | Some (Wj_core.Session.Scalar o) -> o
    | _ -> Alcotest.fail "no scalar outcome"
  in
  let o0 = out s0 and o1 = out s1 in
  (* Each session recorded into its own scope, attempts exact per scope. *)
  List.iter
    (fun (id, (o : Online.outcome)) ->
      let c = Recorder.convergence recorder ~scope:(Recorder.scope_of_session id) in
      Alcotest.(check int)
        (Printf.sprintf "session%d attribution = walks" id)
        o.Online.final.walks (Convergence.total_attempts c);
      Alcotest.(check bool)
        (Printf.sprintf "session%d has CI points" id)
        true
        (Array.length (Convergence.ci_series c) > 0))
    [ (Scheduler.id s0, o0); (Scheduler.id s1, o1) ];
  Alcotest.(check (list string)) "scopes in first-use order"
    [ Recorder.scope_of_session (Scheduler.id s0);
      Recorder.scope_of_session (Scheduler.id s1) ]
    (Recorder.convergence_scopes recorder);
  (* The scheduler published per-session progress gauges into the shared
     registry; they must survive a JSON round trip under their scope. *)
  let snap = Snapshot.of_metrics (Recorder.metrics recorder) in
  let back = Snapshot.of_json (Json.parse (Json.to_string (Snapshot.to_json snap))) in
  Alcotest.(check bool) "snapshot round-trips" true (Snapshot.equal snap back);
  List.iter
    (fun (id, (o : Online.outcome)) ->
      let name = Printf.sprintf "session%d.progress.walks" id in
      Alcotest.(check (float 1e-9))
        (name ^ " round-trips")
        (float_of_int o.Online.final.walks)
        (Snapshot.gauge_value back name))
    [ (Scheduler.id s0, o0); (Scheduler.id s1, o1) ];
  (* Recorder time series exist for the scoped gauges. *)
  Alcotest.(check bool) "scoped gauge series sampled" true
    (Recorder.series recorder
       (Printf.sprintf "session%d.progress.half_width" (Scheduler.id s0))
    <> None)

(* ---- snapshot quantiles + legacy histogram JSON -------------------------- *)

let test_histogram_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets:10 "lat" in
  (* 90 observations in bucket 0, 9 in bucket 5, 1 in bucket 9. *)
  Wj_obs.Histogram.add h 0 90;
  Wj_obs.Histogram.add h 5 9;
  Wj_obs.Histogram.add h 9 1;
  let snap = Snapshot.of_metrics m in
  let rendered = Snapshot.render snap in
  let has s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "render shows p50" true (has rendered "p50=0");
  Alcotest.(check bool) "render shows p95" true (has rendered "p95=5");
  Alcotest.(check bool) "render shows p99" true (has rendered "p99=5");
  let field k j = Option.bind j (Json.member k) in
  let p95 = field "p95" (field "lat" (field "histograms" (Some (Snapshot.to_json snap)))) in
  Alcotest.(check (option int)) "json carries quantiles" (Some 5) (Option.bind p95 Json.to_int);
  (* Legacy dumps encoded histograms as bare bucket arrays; the parser
     must still accept that shape. *)
  let legacy = {|{
  "counters": {},
  "histograms": {
    "lat": [90, 0, 0, 0, 0, 9, 0, 0, 0, 1]
  },
  "gauges": {}
}|} in
  let back = Snapshot.of_json (Json.parse legacy) in
  Alcotest.(check (array int)) "legacy bare-array histogram parses"
    [| 90; 0; 0; 0; 0; 9; 0; 0; 0; 1 |]
    (Snapshot.histogram_value back "lat")

(* ---- recorder JSON ------------------------------------------------------- *)

let test_recorder_json () =
  let clock = Timer.virtual_ () in
  let recorder = Recorder.create ~tracing:true ~clock () in
  let m = Recorder.metrics recorder in
  Wj_obs.Counter.add (Metrics.counter m "walks") 10;
  Timer.advance clock 1.0;
  Recorder.sample recorder;
  Wj_obs.Counter.add (Metrics.counter m "walks") 30;
  Timer.advance clock 1.0;
  Recorder.sample recorder;
  let tr = Option.get (Recorder.trace recorder) in
  Trace.span_begin tr "quantum";
  Timer.advance clock 0.5;
  Trace.span_end tr ();
  let c = Recorder.convergence recorder ~scope:"" in
  Convergence.observe c ~plan:"p" ~success:true 1.0;
  Convergence.note_ci c ~walks:1 ~half_width:2.0;
  let json = Recorder.to_json recorder in
  let has sub =
    let n = String.length json and m = String.length sub in
    let rec go i = i + m <= n && (String.sub json i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun key -> Alcotest.(check bool) key true (has key))
    [
      "\"traceEvents\"";
      "\"timeseries\"";
      "\"convergence\"";
      "\"spans\"";
      "\"walks.rate\"";
      "\"quantum\"";
      "\"total_attempts\":1";
    ];
  (* The derived rate series: 10 counts in the first second, then 30. *)
  match Recorder.series recorder "walks.rate" with
  | Some [| (_, r1); (_, r2) |] ->
    Alcotest.(check (float 1e-9)) "first rate" 10.0 r1;
    Alcotest.(check (float 1e-9)) "second rate" 30.0 r2
  | Some a -> Alcotest.fail (Printf.sprintf "expected 2 rate points, got %d" (Array.length a))
  | None -> Alcotest.fail "walks.rate series missing"

let () =
  Alcotest.run "wj_recorder"
    [
      ( "timeseries",
        [
          QCheck_alcotest.to_alcotest ts_capacity_bound;
          QCheck_alcotest.to_alcotest ts_newest_retained;
          QCheck_alcotest.to_alcotest ts_monotone_x;
        ] );
      ( "trace",
        [
          QCheck_alcotest.to_alcotest trace_nesting_balanced;
          Alcotest.test_case "unbalanced end is safe" `Quick test_trace_unbalanced_end;
          Alcotest.test_case "chrome json shape" `Quick test_trace_json_shape;
        ] );
      ( "transparency",
        [
          Alcotest.test_case "recorder on = recorder off, bit for bit" `Quick
            test_recorder_transparency;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "Q3 decay fit + exact attribution" `Quick
            test_q3_convergence;
          Alcotest.test_case "credit + stall detection" `Quick
            test_convergence_credit_and_stall;
        ] );
      ( "service",
        [
          Alcotest.test_case "per-session scopes + gauge round trip" `Quick
            test_scheduled_scopes_and_gauges;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "histogram quantiles + legacy JSON" `Quick
            test_histogram_quantiles;
        ] );
      ( "json", [ Alcotest.test_case "combined dump" `Quick test_recorder_json ] );
    ]
