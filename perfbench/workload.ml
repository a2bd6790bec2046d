(* Data, statements and ground truths of the three workloads.

   The data is fixed: the TPC-H generator and the triangle tables take
   [data_seed].  The workload seed picks every answer's session seed (a
   hash of (seed, answer index)) and so the walks.  Holding the data still
   keeps a statement's work from jumping between seeds (Q7's FRANCE and
   GERMANY have about four suppliers each at this scale).  The program
   sees only the SQL text and the generated catalog. *)

module G = Wj_tpch.Generator
module Table = Wj_storage.Table
module Schema = Wj_storage.Schema
module Value = Wj_storage.Value
module Engine = Wj_sql.Engine

let sf = 0.01
let data_seed = 7

(* Seconds an answer may take before it counts as a missed target. *)
let time_cap = 10.0

type stmt = {
  name : string;  (** statement class, e.g. "q3" *)
  sql : string;
  truth_sql : string;  (** the same statement without ONLINE *)
  target : float option;  (** relative CI half-width at 95% *)
  budget : int option;  (** walk budget (GROUP BY has no CI stop) *)
}

type truth = Scalar of float | Groups of (Value.t * float) list

let revenue = "SUM(l_extendedprice * (1 - l_discount))"

let stmt ?target ?budget name agg from_where =
  {
    name;
    sql = Printf.sprintf "SELECT ONLINE %s FROM %s" agg from_where;
    truth_sql = Printf.sprintf "SELECT %s FROM %s" agg from_where;
    target;
    budget;
  }

let exact_stmt name agg from_where =
  let sql = Printf.sprintf "SELECT %s FROM %s" agg from_where in
  { name; sql; truth_sql = sql; target = None; budget = None }

let chain = "customer, orders, lineitem WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey"

let q3 target =
  stmt ~target "q3" revenue
    (Printf.sprintf
       "%s AND c_mktsegment_id = %d AND o_orderdate < DATE '1995-03-15' AND \
        l_shipdate > DATE '1995-03-15'"
       chain (G.segment_id "BUILDING"))

let q7 target =
  stmt ~target "q7" revenue
    (Printf.sprintf
       "supplier, lineitem, orders, customer, nation n1, nation n2 WHERE s_suppkey \
        = l_suppkey AND o_orderkey = l_orderkey AND c_custkey = o_custkey AND \
        s_nationkey = n1.n_nationkey AND c_nationkey = n2.n_nationkey AND \
        n1.n_nationkey = %d AND n2.n_nationkey = %d AND l_shipdate BETWEEN DATE \
        '1995-01-01' AND DATE '1996-12-31'"
       (G.nation_key "FRANCE") (G.nation_key "GERMANY"))

let q10 target =
  stmt ~target "q10" revenue
    "customer, orders, lineitem, nation WHERE c_custkey = o_custkey AND o_orderkey \
     = l_orderkey AND c_nationkey = n_nationkey AND o_orderdate BETWEEN DATE \
     '1993-10-01' AND DATE '1993-12-31' AND l_returnflag_id = 2"

let triangle target =
  stmt ~target "triangle" "COUNT(*)" "tf, tg, th WHERE fb = gb AND gc = hc AND ha = fa"

let group_by budget =
  stmt ~budget "groupby" revenue (chain ^ " GROUP BY c_mktsegment")

(* The walk_mem cycle; walk_paged runs its Q3 and Q10.  Class weights keep
   the median and the 90th percentile inside one class's latencies rather
   than on the edge between two: walk_paged runs Q3 twice per cycle. *)
let walk_mem_cycle = [ q3 0.10; q7 0.25; q10 0.025; triangle 0.07; group_by 100_000 ]
let walk_paged_cycle = [ q3 0.10; q10 0.025; q3 0.10 ]

(* Three 50k-row two-column tables with keys in [0, 1000): the cyclic
   triangle query the walker answers with trie pre-intersection. *)
let triangle_rows = 50_000
let triangle_domain = 1000

let add_triangle catalog =
  let prng = Wj_util.Prng.create data_seed in
  let mk name c1 c2 =
    let t =
      Table.create ~name
        ~schema:(Schema.make [ { Schema.name = c1; ty = TInt }; { name = c2; ty = TInt } ])
        ()
    in
    for _ = 1 to triangle_rows do
      ignore
        (Table.insert t
           [|
             Int (Wj_util.Prng.int prng triangle_domain);
             Int (Wj_util.Prng.int prng triangle_domain);
           |])
    done;
    Wj_storage.Catalog.add_table catalog t
  in
  mk "tf" "fa" "fb";
  mk "tg" "gb" "gc";
  mk "th" "hc" "ha"

let catalog ~triangle =
  let c = G.catalog (G.generate ~seed:data_seed ~sf ()) in
  if triangle then add_triangle c;
  c

let truth catalog st =
  match (Engine.execute_session Wj_core.Run_config.default catalog st.truth_sql).items with
  | [ (_, Engine.Exact_scalar e) ] -> Scalar e.Wj_exec.Exact.value
  | [ (_, Engine.Exact_groups gs) ] ->
    Groups (List.map (fun (k, (e : Wj_exec.Exact.result)) -> (k, e.value)) gs)
  | _ -> failwith ("ground truth: unexpected result shape for " ^ st.name)

(* Session seed of answer [i]: distinct per answer, fixed by the workload seed. *)
let answer_seed ~seed i = Hashtbl.hash (seed, i, "answer")

let config st ~seed =
  Wj_core.Run_config.make ~seed ~max_time:time_cap
    ?target:(Option.map (fun f -> Wj_stats.Target.relative f) st.target)
    ?max_walks:st.budget ()

(* An online estimate is right when its CI stop fired and it lies within
   four half-widths of the truth. *)
let close ~truth ~estimate ~half_width =
  Float.abs (estimate -. truth) <= 4.0 *. half_width

type verdict = { walks : int; ok : bool; why : string }

let verdict_of st truth (outcome : Engine.item_outcome) =
  let bad why walks = { walks; ok = false; why } in
  match (outcome, truth) with
  | Engine.Online_scalar o, Scalar t ->
    let walks = o.final.walks in
    if o.stopped_because <> Wj_core.Online.Target_reached then
      bad (st.name ^ ": target not reached") walks
    else if not (close ~truth:t ~estimate:o.final.estimate ~half_width:o.final.half_width)
    then
      bad
        (Printf.sprintf "%s: estimate %.17g +/- %.17g vs truth %.17g" st.name
           o.final.estimate o.final.half_width t)
        walks
    else { walks; ok = true; why = "" }
  | Engine.Online_groups g, Groups ts ->
    let walks = g.total_walks in
    let wrong =
      List.filter
        (fun (key, (r : Wj_core.Online.report)) ->
          match List.assoc_opt key ts with
          | Some t -> not (close ~truth:t ~estimate:r.estimate ~half_width:r.half_width)
          | None -> true)
        g.groups
    in
    if Some walks <> st.budget then bad (st.name ^ ": walk budget not spent") walks
    else if wrong <> [] || List.length g.groups <> List.length ts then
      bad (st.name ^ ": group estimate outside 4 half-widths") walks
    else { walks; ok = true; why = "" }
  | Engine.Exact_scalar e, Scalar t ->
    if e.value = t then { walks = 0; ok = true; why = "" }
    else bad (Printf.sprintf "%s: exact %.17g vs truth %.17g" st.name e.value t) 0
  | _ -> bad (st.name ^ ": unexpected result shape") 0

let check st truth (r : Engine.result) =
  match r.items with
  | [ (_, outcome) ] -> verdict_of st truth outcome
  | _ -> { walks = 0; ok = false; why = st.name ^ ": expected one item" }
