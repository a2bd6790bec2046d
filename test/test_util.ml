(* Tests for wj_util: PRNG, Vec, Normal, Timer, Json. *)

module Prng = Wj_util.Prng
module Vec = Wj_util.Vec
module Normal = Wj_util.Normal
module Timer = Wj_util.Timer
module Json = Wj_util.Json

let check_float = Alcotest.(check (float 1e-9))

(* ---- Prng ------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 2)

let test_prng_copy_independent () =
  let a = Prng.create 5 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 a) (Prng.bits64 b);
  ignore (Prng.bits64 a);
  (* advancing a does not touch b *)
  let before = Prng.copy b in
  Alcotest.(check int64) "b unaffected" (Prng.bits64 before) (Prng.bits64 b)

let test_prng_int_bounds () =
  let t = Prng.create 9 in
  for _ = 1 to 10_000 do
    let x = Prng.int t 7 in
    Alcotest.(check bool) "in [0,7)" true (x >= 0 && x < 7)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0))

let test_prng_int_uniform () =
  (* Chi-square-style sanity check: 10 buckets, 100k draws; each bucket
     should be within 5% of the expected count. *)
  let t = Prng.create 31 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let x = Prng.int t 10 in
    buckets.(x) <- buckets.(x) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d balanced (%d)" i c)
        true
        (abs (c - (n / 10)) < n / 10 / 20))
    buckets

let test_prng_int_in_range () =
  let t = Prng.create 77 in
  for _ = 1 to 1000 do
    let x = Prng.int_in_range t ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in [-5,5]" true (x >= -5 && x <= 5)
  done;
  Alcotest.(check int) "degenerate range" 3 (Prng.int_in_range t ~lo:3 ~hi:3)

let test_prng_float_bounds () =
  let t = Prng.create 13 in
  for _ = 1 to 10_000 do
    let x = Prng.float t 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (x >= 0.0 && x < 2.5)
  done

let test_prng_float_mean () =
  let t = Prng.create 21 in
  let n = 200_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.float t 1.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_prng_bernoulli () =
  let t = Prng.create 3 in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Prng.bernoulli t 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "p near 0.3" true (Float.abs (p -. 0.3) < 0.01)

let test_prng_gaussian_moments () =
  let t = Prng.create 8 in
  let n = 200_000 in
  let sum = ref 0.0 and sum2 = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.gaussian t in
    sum := !sum +. x;
    sum2 := !sum2 +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sum2 /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.02);
  Alcotest.(check bool) "variance near 1" true (Float.abs (var -. 1.0) < 0.03)

let test_prng_exponential_mean () =
  let t = Prng.create 15 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential t 2.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 1/2" true (Float.abs (mean -. 0.5) < 0.02)

let test_prng_shuffle_is_permutation () =
  let t = Prng.create 44 in
  let a = Array.init 100 Fun.id in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted;
  Alcotest.(check bool) "actually shuffled" true (a <> Array.init 100 Fun.id)

let test_prng_split_independent () =
  let parent = Prng.create 5 in
  let child = Prng.split parent in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 parent = Prng.bits64 child then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 2)

let test_prng_pick () =
  let t = Prng.create 2 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "member" true (Array.mem (Prng.pick t a) a)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Prng.pick: empty array") (fun () ->
      ignore (Prng.pick t [||]))

(* ---- Vec ------------------------------------------------------------- *)

let test_vec_push_get () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  for i = 0 to 999 do
    Vec.push v (i * 2)
  done;
  Alcotest.(check int) "length" 1000 (Vec.length v);
  for i = 0 to 999 do
    Alcotest.(check int) "get" (i * 2) (Vec.get v i)
  done

let test_vec_bounds () =
  let v = Vec.create () in
  Vec.push v 1;
  Alcotest.check_raises "get oob" (Invalid_argument "Vec.get: index out of bounds")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "get negative" (Invalid_argument "Vec.get: index out of bounds")
    (fun () -> ignore (Vec.get v (-1)));
  Alcotest.check_raises "set oob" (Invalid_argument "Vec.set: index out of bounds")
    (fun () -> Vec.set v 5 0)

let test_vec_pop () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  Alcotest.(check (option int)) "pop 3" (Some 3) (Vec.pop v);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Vec.pop v);
  Alcotest.(check int) "length" 1 (Vec.length v);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Vec.pop v);
  Alcotest.(check (option int)) "pop empty" None (Vec.pop v)

let test_vec_set () =
  let v = Vec.of_array [| 1; 2; 3 |] in
  Vec.set v 1 42;
  Alcotest.(check (list int)) "set" [ 1; 42; 3 ] (Vec.to_list v)

let test_vec_iter_fold_map () =
  let v = Vec.of_array [| 1; 2; 3; 4 |] in
  Alcotest.(check int) "fold sum" 10 (Vec.fold_left ( + ) 0 v);
  let collected = ref [] in
  Vec.iteri (fun i x -> collected := (i, x) :: !collected) v;
  Alcotest.(check int) "iteri count" 4 (List.length !collected);
  let doubled = Vec.map (fun x -> x * 2) v in
  Alcotest.(check (list int)) "map" [ 2; 4; 6; 8 ] (Vec.to_list doubled);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 3) v);
  Alcotest.(check bool) "not exists" false (Vec.exists (fun x -> x = 9) v)

let test_vec_sort_clear () =
  let v = Vec.of_array [| 3; 1; 2 |] in
  Vec.sort compare v;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] (Vec.to_list v);
  Vec.clear v;
  Alcotest.(check int) "cleared" 0 (Vec.length v)

let vec_model_test =
  QCheck.Test.make ~name:"vec behaves like a list" ~count:500
    QCheck.(list (int_range 0 2))
    (fun ops ->
      let v = Vec.create () in
      let model = ref [] in
      List.iteri
        (fun i op ->
          match op with
          | 0 ->
            Vec.push v i;
            model := !model @ [ i ]
          | 1 -> (
            match (Vec.pop v, !model) with
            | None, [] -> ()
            | Some x, l when l <> [] ->
              let last = List.nth l (List.length l - 1) in
              if x <> last then QCheck.Test.fail_report "pop mismatch";
              model := List.filteri (fun j _ -> j < List.length l - 1) l
            | _ -> QCheck.Test.fail_report "pop/model disagree on emptiness")
          | _ ->
            if Vec.length v <> List.length !model then
              QCheck.Test.fail_report "length mismatch")
        ops;
      Vec.to_list v = !model)

(* ---- Normal ---------------------------------------------------------- *)

let test_normal_cdf_known () =
  let cases = [ (0.0, 0.5); (1.0, 0.8413447); (-1.0, 0.1586553); (1.96, 0.9750021) ] in
  List.iter
    (fun (x, expected) ->
      Alcotest.(check (float 1e-4))
        (Printf.sprintf "cdf(%g)" x)
        expected (Normal.cdf x))
    cases

let test_normal_quantile_known () =
  Alcotest.(check (float 1e-6)) "median" 0.0 (Normal.quantile 0.5);
  Alcotest.(check (float 1e-4)) "97.5%" 1.959964 (Normal.quantile 0.975);
  Alcotest.(check (float 1e-4)) "2.5%" (-1.959964) (Normal.quantile 0.025);
  Alcotest.(check (float 1e-3)) "99.5%" 2.575829 (Normal.quantile 0.995)

let test_normal_roundtrip () =
  List.iter
    (fun p ->
      let x = Normal.quantile p in
      Alcotest.(check (float 1e-5)) (Printf.sprintf "cdf(quantile %g)" p) p (Normal.cdf x))
    [ 0.001; 0.01; 0.1; 0.3; 0.5; 0.7; 0.9; 0.99; 0.999 ]

let test_normal_z_of_confidence () =
  Alcotest.(check (float 1e-4)) "95%" 1.959964 (Normal.z_of_confidence 0.95);
  Alcotest.(check (float 1e-4)) "99%" 2.575829 (Normal.z_of_confidence 0.99);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Normal.z_of_confidence: alpha must lie in (0,1)") (fun () ->
      ignore (Normal.z_of_confidence 1.5))

let test_normal_quantile_domain () =
  Alcotest.check_raises "p=0" (Invalid_argument "Normal.quantile: p must lie in (0,1)")
    (fun () -> ignore (Normal.quantile 0.0));
  Alcotest.check_raises "p=1" (Invalid_argument "Normal.quantile: p must lie in (0,1)")
    (fun () -> ignore (Normal.quantile 1.0))

let test_normal_pdf () =
  check_float "pdf(0)" 0.3989422804014327 (Normal.pdf 0.0);
  Alcotest.(check (float 1e-9)) "symmetry" (Normal.pdf 1.3) (Normal.pdf (-1.3))

(* ---- Timer ----------------------------------------------------------- *)

let test_timer_virtual () =
  let c = Timer.virtual_ () in
  Alcotest.(check bool) "is virtual" true (Timer.is_virtual c);
  check_float "starts at 0" 0.0 (Timer.elapsed c);
  Timer.advance c 1.5;
  Timer.advance c 0.25;
  check_float "advanced" 1.75 (Timer.elapsed c);
  Timer.reset c;
  check_float "reset" 0.0 (Timer.elapsed c);
  Alcotest.check_raises "negative" (Invalid_argument "Timer.advance: negative amount")
    (fun () -> Timer.advance c (-1.0))

let test_timer_wall () =
  let c = Timer.wall () in
  Alcotest.(check bool) "not virtual" false (Timer.is_virtual c);
  Alcotest.(check bool) "monotone" true (Timer.elapsed c >= 0.0);
  Alcotest.check_raises "cannot advance"
    (Invalid_argument "Timer.advance: cannot advance a wall clock") (fun () ->
      Timer.advance c 1.0)

let test_timer_hybrid () =
  let c = Timer.hybrid () in
  Alcotest.(check bool) "hybrid accepts advance" true (Timer.is_virtual c);
  let before = Timer.elapsed c in
  Timer.advance c 2.0;
  let after = Timer.elapsed c in
  (* Simulated charge plus (tiny) real elapsed time. *)
  Alcotest.(check bool) "charge visible" true (after -. before >= 2.0);
  Alcotest.(check bool) "real time included" true (after >= 2.0);
  Timer.reset c;
  Alcotest.(check bool) "reset clears both parts" true (Timer.elapsed c < 0.5)

let test_timer_time_it () =
  let x, dt = Timer.time_it (fun () -> 42) in
  Alcotest.(check int) "result" 42 x;
  Alcotest.(check bool) "non-negative duration" true (dt >= 0.0)

(* ---- Json ------------------------------------------------------------ *)

(* Structural equality with floats compared bit for bit. *)
let rec json_equal a b =
  match (a, b) with
  | Json.Float x, Json.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.List xs, Json.List ys -> List.equal json_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.equal (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_equal v1 v2) xs ys
  | a, b -> a = b

let json_gen =
  let open QCheck.Gen in
  (* Any byte, control characters and non-UTF-8 sequences included. *)
  let bytes = string_size ~gen:char (int_bound 12) in
  let finite_float =
    map
      (fun bits ->
        let f = Int64.float_of_bits bits in
        if Float.is_finite f then f else 0.5)
      ui64
  in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int;
               map (fun f -> Json.Float f) finite_float;
               map (fun f -> Json.Float f) (float_range (-1e6) 1e6);
               map (fun s -> Json.Str s) bytes;
             ]
         in
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun xs -> Json.List xs) (list_size (int_bound 5) (self (n / 3))));
               ( 1,
                 map
                   (fun kv -> Json.Obj kv)
                   (list_size (int_bound 5) (pair bytes (self (n / 3)))) );
             ])

let json_roundtrip_test =
  QCheck.Test.make ~name:"json parse (to_string v) = v" ~count:500
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v -> json_equal v (Json.parse (Json.to_string v)))

(* Strings that look like JSON fragments hit the parser's error paths far
   more often than uniform bytes; truncated valid documents cover the
   "unexpected end" branches. *)
let json_fuzz_test =
  let open QCheck.Gen in
  let alphabet = "{}[]\":,\\/u0123456789abcdefABCDEFDd.eE+- \ntrulsnx_" in
  let jsonish =
    string_size ~gen:(map (String.get alphabet) (int_bound (String.length alphabet - 1))) (int_bound 40)
  in
  let truncated =
    json_gen >>= fun v ->
    let s = Json.to_string v in
    map (fun k -> String.sub s 0 k) (int_bound (String.length s))
  in
  QCheck.Test.make ~name:"json parse raises only Parse_error" ~count:2000
    (QCheck.make ~print:String.escaped
       (oneof [ jsonish; string_size ~gen:char (int_bound 40); truncated ]))
    (fun s -> match Json.parse s with _ -> true | exception Json.Parse_error _ -> true)

let parse_str s = match Json.parse s with Json.Str s -> s | _ -> Alcotest.fail "not a string"

let test_json_unicode_escapes () =
  let check = Alcotest.(check string) in
  check "ASCII" "A\000" (parse_str {|"\u0041\u0000"|});
  check "Latin-1 as UTF-8" "caf\xc3\xa9" (parse_str {|"caf\u00e9"|});
  check "upper-case hex" "caf\xc3\xa9" (parse_str {|"caf\u00E9"|});
  check "two-byte" "\xd7\x90" (parse_str {|"\u05d0"|});
  check "three-byte" "\xe2\x82\xac" (parse_str {|"\u20ac"|});
  check "surrogate pair" "\xf0\x9f\x98\x80" (parse_str {|"\ud83d\ude00"|});
  check "top of the range" "\xf4\x8f\xbf\xbf" (parse_str {|"\udbff\udfff"|});
  check "escapes next to raw bytes" "a\n\xc3\xa9b" (parse_str "\"a\\n\xc3\xa9b\"");
  List.iter
    (fun (label, doc) ->
      match Json.parse doc with
      | _ -> Alcotest.failf "%s: %s parsed" label doc
      | exception Json.Parse_error _ -> ())
    [
      ("lone high surrogate", {|"\ud83d"|});
      ("high surrogate then text", {|"\ud83dx"|});
      ("high surrogate then non-surrogate", {|"\ud83d\u0041"|});
      ("two high surrogates", {|"\ud83d\ud83d"|});
      ("lone low surrogate", {|"\ude00"|});
      ("underscore in hex", {|"\u0_1f"|});
      ("sign in hex", {|"\u+01f"|});
      ("three hex digits", {|"\u01f"|});
      ("non-hex digit", {|"\u00g0"|});
    ]

let test_json_malformed () =
  List.iter
    (fun doc ->
      match Json.parse doc with
      | _ -> Alcotest.failf "%S parsed" doc
      | exception Json.Parse_error _ -> ())
    [ ""; " "; "{"; "[1,]"; "{\"a\" 1}"; "{\"a\":1,}"; "\"abc"; "tru"; "nul"; "-"; "1 2"; "[1]x"; "\"\\x\"" ]

let test_json_printing () =
  let check = Alcotest.(check string) in
  check "integral float keeps a point" "[1.0,-0.0,1e+20]"
    (Json.to_string (Json.List [ Json.Float 1.0; Json.Float (-0.0); Json.Float 1e20 ]));
  check "non-finite floats are strings" {|["nan","inf","-inf"]|}
    (Json.to_string (Json.List (List.map (fun f -> Json.Float f) [ Float.nan; infinity; neg_infinity ])));
  check "escapes control bytes only"
    ({|"q\"b\\n\nr\rt\tc\u0001\u001f\b\f|} ^ "\x7f\xc3\xa9\"")
    (Json.to_string (Json.Str "q\"b\\n\nr\rt\tc\001\031\b\012\127\xc3\xa9"));
  let buf = Buffer.create 16 in
  Json.write_string buf "k\n";
  check "string writer" {|"k\n"|} (Buffer.contents buf)

let () =
  Alcotest.run "wj_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_prng_copy_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int uniform" `Slow test_prng_int_uniform;
          Alcotest.test_case "int_in_range" `Quick test_prng_int_in_range;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "float mean" `Slow test_prng_float_mean;
          Alcotest.test_case "bernoulli" `Slow test_prng_bernoulli;
          Alcotest.test_case "gaussian moments" `Slow test_prng_gaussian_moments;
          Alcotest.test_case "exponential mean" `Slow test_prng_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_is_permutation;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "pick" `Quick test_prng_pick;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "pop" `Quick test_vec_pop;
          Alcotest.test_case "set" `Quick test_vec_set;
          Alcotest.test_case "iter/fold/map" `Quick test_vec_iter_fold_map;
          Alcotest.test_case "sort/clear" `Quick test_vec_sort_clear;
          QCheck_alcotest.to_alcotest vec_model_test;
        ] );
      ( "normal",
        [
          Alcotest.test_case "cdf known values" `Quick test_normal_cdf_known;
          Alcotest.test_case "quantile known values" `Quick test_normal_quantile_known;
          Alcotest.test_case "roundtrip" `Quick test_normal_roundtrip;
          Alcotest.test_case "z_of_confidence" `Quick test_normal_z_of_confidence;
          Alcotest.test_case "quantile domain" `Quick test_normal_quantile_domain;
          Alcotest.test_case "pdf" `Quick test_normal_pdf;
        ] );
      ( "timer",
        [
          Alcotest.test_case "virtual clock" `Quick test_timer_virtual;
          Alcotest.test_case "wall clock" `Quick test_timer_wall;
          Alcotest.test_case "hybrid clock" `Quick test_timer_hybrid;
          Alcotest.test_case "time_it" `Quick test_timer_time_it;
        ] );
      ( "json",
        [
          QCheck_alcotest.to_alcotest json_roundtrip_test;
          QCheck_alcotest.to_alcotest json_fuzz_test;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "malformed documents" `Quick test_json_malformed;
          Alcotest.test_case "printing" `Quick test_json_printing;
        ] );
    ]
