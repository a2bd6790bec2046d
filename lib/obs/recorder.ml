module Json = Wj_util.Json

type t = {
  metrics : Metrics.t;
  trace : Trace.t option;
  series_capacity : int;
  series : (string, Timeseries.t) Hashtbl.t;
  mutable series_order : string list;  (* reversed registration order *)
  last_counter : (string, int) Hashtbl.t;
  mutable last_sample : float;
  convergence : (string, Convergence.t) Hashtbl.t;
  mutable convergence_order : string list;  (* reversed *)
  clock : Wj_util.Timer.t;
}

let create ?(series_capacity = 512) ?(tracing = false) ?(trace_capacity = 8192) ?clock
    ?metrics () =
  let clock = match clock with Some c -> c | None -> Wj_util.Timer.wall () in
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  {
    metrics;
    trace = (if tracing then Some (Trace.create ~capacity:trace_capacity ~clock ()) else None);
    series_capacity;
    series = Hashtbl.create 32;
    series_order = [];
    last_counter = Hashtbl.create 32;
    (* Rate baseline: the recorder's creation instant, so the first
       sample's window is "since the run began", not undefined. *)
    last_sample = Wj_util.Timer.elapsed clock;
    convergence = Hashtbl.create 4;
    convergence_order = [];
    clock;
  }

let metrics t = t.metrics
let trace t = t.trace
let clock t = t.clock

let find_series t name =
  match Hashtbl.find_opt t.series name with
  | Some s -> s
  | None ->
    let s = Timeseries.create ~capacity:t.series_capacity () in
    Hashtbl.add t.series name s;
    t.series_order <- name :: t.series_order;
    s

let series t name = Option.map Timeseries.to_array (Hashtbl.find_opt t.series name)
let series_names t = List.rev t.series_order

let convergence t ~scope =
  match Hashtbl.find_opt t.convergence scope with
  | Some c -> c
  | None ->
    let c = Convergence.create ~capacity:t.series_capacity () in
    Hashtbl.add t.convergence scope c;
    t.convergence_order <- scope :: t.convergence_order;
    c

let convergence_scopes t = List.rev t.convergence_order

(* Walk every registered family and append one point per value series.
   Counters additionally feed a derived ["<name>.rate"] series (events
   per second since the previous sample).  Histograms are skipped — their
   full bucket arrays belong to {!Snapshot}, not a scalar trajectory. *)
let sample t =
  let now = Wj_util.Timer.elapsed t.clock in
  let dt = now -. t.last_sample in
  List.iter
    (fun (name, fam) ->
      match fam with
      | Metrics.Counter c ->
        let v = Counter.value c in
        Timeseries.push (find_series t name) ~x:now ~y:(float_of_int v);
        let prev = Option.value ~default:0 (Hashtbl.find_opt t.last_counter name) in
        Hashtbl.replace t.last_counter name v;
        if dt > 0.0 && Float.is_finite dt then
          Timeseries.push
            (find_series t (name ^ ".rate"))
            ~x:now
            ~y:(float_of_int (v - prev) /. dt)
      | Metrics.Gauge g -> Timeseries.push (find_series t name) ~x:now ~y:(Gauge.value g)
      | Metrics.Histogram _ -> ())
    (Metrics.families t.metrics);
  t.last_sample <- now

let scope_of_session session = Printf.sprintf "session%d." session

let note_progress t ~scope (p : Progress.t) =
  let c = convergence t ~scope in
  Convergence.note_ci c ~walks:p.Progress.walks ~half_width:p.Progress.half_width

let on_event t (ev : Event.t) =
  match ev with
  | Event.Report p ->
    note_progress t ~scope:"" p;
    sample t
  | Event.Session_report { session; progress; _ } ->
    note_progress t ~scope:(scope_of_session session) progress;
    sample t
  | Event.Stopped _ | Event.Session_finished _ -> sample t
  | _ -> ()

(* The recorder's sink subscribes at reports-only granularity: milestone
   events drive sampling and CI tracking, while the walk hot path keeps
   feeding plain counters — which is what holds timeseries-only overhead
   inside the bench budget. *)
let sink t =
  Sink.make ~on_event:(on_event t) ~metrics:t.metrics ?trace:t.trace ~events:`Reports ()

(* A session scheduled by the service emits plain driver-level [Report]
   events through its (already metrics-scoped) sink; routing them through
   [sink] would pool every session's CI trajectory under scope "".  A
   scoped sink pins those reports to the caller's scope instead. *)
let scoped_on_event t ~scope (ev : Event.t) =
  match ev with
  | Event.Report p ->
    note_progress t ~scope p;
    sample t
  | Event.Stopped _ -> sample t
  | ev -> on_event t ev

let scoped_sink t ~scope =
  Sink.make ~on_event:(scoped_on_event t ~scope) ~metrics:t.metrics ?trace:t.trace
    ~events:`Reports ()

(* ---- JSON export ------------------------------------------------------ *)

let points pts =
  Json.List (Array.to_list (Array.map (fun (x, y) -> Json.List [ Json.Float x; Json.Float y ]) pts))

let timeseries_json t =
  Json.Obj
    (List.map
       (fun name ->
         let s = Hashtbl.find t.series name in
         ( name,
           Json.Obj
             [
               ("pushes", Json.Int (Timeseries.pushes s));
               ("stride", Json.Int (Timeseries.stride s));
               ("points", points (Timeseries.to_array s));
             ] ))
       (series_names t))

let convergence_json t =
  let fit = function
    | None -> Json.Null
    | Some (f : Convergence.fit) ->
      Json.Obj
        [ ("c", Json.Float f.c); ("exponent", Json.Float f.exponent); ("points", Json.Int f.points) ]
  in
  let plan (a : Convergence.attribution) =
    Json.Obj
      [
        ("plan", Json.Str a.plan);
        ("attempts", Json.Int a.attempts);
        ("successes", Json.Int a.successes);
        ("variance", Json.Float a.variance);
        ("share", Json.Float a.share);
      ]
  in
  Json.Obj
    (List.map
       (fun scope ->
         let c = Hashtbl.find t.convergence scope in
         ( scope,
           Json.Obj
             [
               ("fit", fit (Convergence.fit c));
               ("total_attempts", Json.Int (Convergence.total_attempts c));
               ("plans", Json.List (List.map plan (Convergence.attribution c)));
               ("ci", points (Convergence.ci_series c));
             ] ))
       (convergence_scopes t))

let spans_json t =
  let totals = match t.trace with None -> [] | Some tr -> Trace.totals tr in
  Json.Obj
    (List.map
       (fun (name, (seconds, count)) ->
         (name, Json.Obj [ ("seconds", Json.Float seconds); ("count", Json.Int count) ]))
       totals)

(* One object, Chrome-trace loadable: chrome://tracing and Perfetto read
   the "traceEvents" key and ignore the recorder's extra sections.  The
   event array streams straight from the trace buffer; the small derived
   sections go through the codec. *)
let to_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":";
  (match t.trace with
  | None -> Buffer.add_string buf "[]"
  | Some tr -> Trace.write_events tr buf);
  List.iter
    (fun (key, v) ->
      Buffer.add_char buf ',';
      Json.write_string buf key;
      Buffer.add_char buf ':';
      Buffer.add_string buf (Json.to_string v))
    [
      ("timeseries", timeseries_json t);
      ("convergence", convergence_json t);
      ("spans", spans_json t);
    ];
  Buffer.add_string buf "}\n";
  Buffer.contents buf
