type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ---- printing --------------------------------------------------------- *)

let write_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_str f =
  if Float.is_nan f then "\"nan\""
  else if f = Float.infinity then "\"inf\""
  else if f = Float.neg_infinity then "\"-inf\""
  else
    let s = Printf.sprintf "%.17g" f in
    (* Keep a float-typed token: %.17g prints 1.0 as "1". *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s else s ^ ".0"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_str f)
  | Str s -> write_string buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        write buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        write_string buf k;
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ---- parsing ---------------------------------------------------------- *)

type cursor = { s : string; mutable pos : int }

let fail cur msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))
let at_end cur = cur.pos >= String.length cur.s

(* The byte under the cursor; callers check [at_end] first. *)
let peek cur = String.unsafe_get cur.s cur.pos

let skip_ws cur =
  while
    (not (at_end cur)) && match peek cur with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    cur.pos <- cur.pos + 1
  done

let expect cur c =
  if (not (at_end cur)) && peek cur = c then cur.pos <- cur.pos + 1
  else fail cur (Printf.sprintf "expected '%c'" c)

let literal cur word v =
  if
    cur.pos + String.length word <= String.length cur.s
    && String.sub cur.s cur.pos (String.length word) = word
  then (
    cur.pos <- cur.pos + String.length word;
    v)
  else fail cur ("expected " ^ word)

(* Exactly four hex digits ([int_of_string] would also take '_'). *)
let hex4 cur =
  if cur.pos + 4 > String.length cur.s then fail cur "short \\u escape";
  let code = ref 0 in
  for i = cur.pos to cur.pos + 3 do
    let d =
      match cur.s.[i] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> fail cur "bad \\u escape"
    in
    code := (!code lsl 4) lor d
  done;
  cur.pos <- cur.pos + 4;
  !code

(* A [\u] escape, cursor just past the 'u': UTF-8 for the code point, with
   a high surrogate required to pair with an immediately following low one. *)
let unicode_escape cur buf =
  let code = hex4 cur in
  let code =
    if code >= 0xD800 && code <= 0xDBFF then begin
      if cur.pos + 2 > String.length cur.s || String.sub cur.s cur.pos 2 <> "\\u" then
        fail cur "lone surrogate";
      cur.pos <- cur.pos + 2;
      let low = hex4 cur in
      if low < 0xDC00 || low > 0xDFFF then fail cur "lone surrogate";
      0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
    end
    else if code >= 0xDC00 && code <= 0xDFFF then fail cur "lone surrogate"
    else code
  in
  Buffer.add_utf_8_uchar buf (Uchar.of_int code)

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if at_end cur then fail cur "unterminated string";
    let c = peek cur in
    cur.pos <- cur.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' ->
      if at_end cur then fail cur "unterminated escape";
      let e = peek cur in
      cur.pos <- cur.pos + 1;
      (match e with
      | '"' | '\\' | '/' -> Buffer.add_char buf e
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'u' -> unicode_escape cur buf
      | _ -> fail cur "bad escape");
      go ()
    | c ->
      Buffer.add_char buf c;
      go ()
  in
  go ()

let parse_number cur =
  let start = cur.pos in
  while
    (not (at_end cur))
    && match peek cur with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  do
    cur.pos <- cur.pos + 1
  done;
  let tok = String.sub cur.s start (cur.pos - start) in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
    match float_of_string_opt tok with
    | Some f -> Float f
    | None -> fail cur "bad number"
  else
    match int_of_string_opt tok with
    | Some n -> Int n
    | None -> (
      (* Integer overflow: fall back to float. *)
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail cur "bad number")

(* Comma-separated items up to [close]; the opening bracket is consumed. *)
let items cur close item =
  skip_ws cur;
  if (not (at_end cur)) && peek cur = close then (
    cur.pos <- cur.pos + 1;
    [])
  else
    let rec go acc =
      let acc = item () :: acc in
      skip_ws cur;
      if at_end cur then fail cur (Printf.sprintf "expected ',' or '%c'" close);
      match peek cur with
      | ',' ->
        cur.pos <- cur.pos + 1;
        go acc
      | c when c = close ->
        cur.pos <- cur.pos + 1;
        List.rev acc
      | _ -> fail cur (Printf.sprintf "expected ',' or '%c'" close)
    in
    go []

let rec parse_value cur =
  skip_ws cur;
  if at_end cur then fail cur "unexpected end of input";
  match peek cur with
  | '"' -> Str (parse_string cur)
  | '{' ->
    cur.pos <- cur.pos + 1;
    Obj
      (items cur '}' (fun () ->
           skip_ws cur;
           let k = parse_string cur in
           skip_ws cur;
           expect cur ':';
           (k, parse_value cur)))
  | '[' ->
    cur.pos <- cur.pos + 1;
    List (items cur ']' (fun () -> parse_value cur))
  | 't' -> literal cur "true" (Bool true)
  | 'f' -> literal cur "false" (Bool false)
  | 'n' -> literal cur "null" Null
  | '-' | '0' .. '9' -> parse_number cur
  | c -> fail cur (Printf.sprintf "unexpected '%c'" c)

let parse s =
  let cur = { s; pos = 0 } in
  let v = parse_value cur in
  skip_ws cur;
  if not (at_end cur) then fail cur "trailing garbage";
  v

(* ---- accessors -------------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_int = function Int n -> Some n | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | Str "nan" -> Some Float.nan
  | Str "inf" -> Some Float.infinity
  | Str "-inf" -> Some Float.neg_infinity
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List xs -> Some xs | _ -> None
