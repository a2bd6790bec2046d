module Json = Wj_util.Json

type entry =
  | Counter of int
  | Gauge of float
  | Histogram of int array

type t = (string * entry) list

let of_metrics m =
  List.map
    (fun (name, fam) ->
      match fam with
      | Metrics.Counter c -> (name, Counter (Counter.value c))
      | Metrics.Histogram h -> (name, Histogram (Histogram.to_array h))
      | Metrics.Gauge g -> (name, Gauge (Gauge.value g)))
    (Metrics.families m)

let counter_value t name =
  match List.assoc_opt name t with Some (Counter n) -> n | _ -> 0

let gauge_value t name =
  match List.assoc_opt name t with Some (Gauge v) -> v | _ -> 0.0

let histogram_value t name =
  match List.assoc_opt name t with Some (Histogram a) -> a | _ -> [||]

(* Smallest bucket index whose cumulative count reaches the [q]-quantile
   of the recorded population; 0 on an empty histogram. *)
let quantile a q =
  let total = Array.fold_left ( + ) 0 a in
  if total = 0 then 0
  else begin
    let target = q *. float_of_int total in
    let cum = ref 0 and idx = ref (Array.length a - 1) and found = ref false in
    Array.iteri
      (fun i n ->
        if not !found then begin
          cum := !cum + n;
          if float_of_int !cum >= target then begin
            idx := i;
            found := true
          end
        end)
      a;
    !idx
  end

let entry_equal a b =
  match (a, b) with
  | Counter x, Counter y -> x = y
  | Histogram x, Histogram y -> x = y
  | Gauge x, Gauge y -> (Float.is_nan x && Float.is_nan y) || x = y
  | _ -> false

let equal a b =
  List.length a = List.length b
  && List.for_all2 (fun (n1, e1) (n2, e2) -> n1 = n2 && entry_equal e1 e2) a b

(* ---- text rendering --------------------------------------------------- *)

let render t =
  let buf = Buffer.create 512 in
  let section title pred show =
    let rows = List.filter (fun (_, e) -> pred e) t in
    if rows <> [] then begin
      Buffer.add_string buf (title ^ ":\n");
      List.iter
        (fun (name, e) -> Buffer.add_string buf (Printf.sprintf "  %-36s %s\n" name (show e)))
        rows
    end
  in
  section "counters"
    (function Counter _ -> true | _ -> false)
    (function Counter n -> string_of_int n | _ -> assert false);
  section "histograms"
    (function Histogram _ -> true | _ -> false)
    (function
      | Histogram a ->
        let total = Array.fold_left ( + ) 0 a in
        let cells =
          Array.to_list (Array.mapi (fun i n -> (i, n)) a)
          |> List.filter (fun (_, n) -> n <> 0)
          |> List.map (fun (i, n) -> Printf.sprintf "%d:%d" i n)
        in
        if total = 0 then "- (total 0)"
        else
          Printf.sprintf "%s (total %d, p50=%d p95=%d p99=%d)"
            (if cells = [] then "-" else String.concat " " cells)
            total (quantile a 0.50) (quantile a 0.95) (quantile a 0.99)
      | _ -> assert false);
  section "gauges"
    (function Gauge _ -> true | _ -> false)
    (function Gauge v -> Printf.sprintf "%.6g" v | _ -> assert false);
  Buffer.contents buf

(* ---- JSON ------------------------------------------------------------- *)

let to_json t =
  let section f =
    Json.Obj (List.filter_map (fun (name, e) -> Option.map (fun v -> (name, v)) (f e)) t)
  in
  Json.Obj
    [
      ("counters", section (function Counter n -> Some (Json.Int n) | _ -> None));
      ("gauges", section (function Gauge v -> Some (Json.Float v) | _ -> None));
      ( "histograms",
        section (function
          | Histogram a ->
            let q p = Json.Int (quantile a p) in
            Some
              (Json.Obj
                 [
                   ("buckets", Json.List (Array.to_list (Array.map (fun n -> Json.Int n) a)));
                   ("p50", q 0.50);
                   ("p95", q 0.95);
                   ("p99", q 0.99);
                 ])
          | _ -> None) );
    ]

let of_json j =
  let fail what = failwith ("Snapshot.of_json: " ^ what) in
  let fields what = function Json.Obj kv -> kv | _ -> fail (what ^ " is not an object") in
  let int what v = match Json.to_int v with Some n -> n | None -> fail (what ^ " is not an int") in
  (* Histograms are {"buckets": [...], "p50": .., ...}; the quantiles are
     derived data, so only the buckets are read back.  Pre-object dumps
     (a bare bucket array) still parse. *)
  let buckets name v =
    match (v, Json.member "buckets" v) with
    | Json.List xs, _ | _, Some (Json.List xs) -> Array.of_list (List.map (int name) xs)
    | _ -> fail (name ^ " has no bucket array")
  in
  let entry = function
    | "counters" -> fun name v -> Counter (int name v)
    | "gauges" -> (
      fun name v ->
        match Json.to_float v with Some f -> Gauge f | None -> fail (name ^ " is not a number"))
    | "histograms" -> fun name v -> Histogram (buckets name v)
    | s -> fail ("unknown section " ^ s)
  in
  List.concat_map
    (fun (section, body) ->
      let entry = entry section in
      List.map (fun (name, v) -> (name, entry name v)) (fields section body))
    (fields "snapshot" j)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
