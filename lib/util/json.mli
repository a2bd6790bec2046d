(** Dependency-free JSON values: the one codec for everything that leaves
    the process as JSON — daemon wire lines, [/stats], metric snapshots,
    Chrome traces and flight records.

    One constructor per JSON shape, a printer and a recursive-descent
    parser.  Numbers keep the int/float split OCaml-side ([Int] prints
    without a decimal point, [Float] with 17 significant digits so float
    bits round-trip); both parse back from the same JSON number token
    (a token with [.], [e] or [E] becomes [Float]).  Strings are byte
    strings: the printer escapes quotes, backslashes and control bytes
    and passes every other byte through, so UTF-8 text prints as itself.
    The parser decodes each [\uXXXX] escape (exactly four hex digits) to
    the UTF-8 bytes of its code point, joining a [\uD8xx\uDCxx]
    surrogate pair into one 4-byte sequence; a lone surrogate is a
    {!Parse_error}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** field order is preserved *)

exception Parse_error of string
(** Malformed input, with a byte offset in the message. *)

val to_string : t -> string
(** Compact (single-line) rendering.  Non-finite floats — JSON has no
    syntax for them — are encoded as the strings ["nan"], ["inf"],
    ["-inf"], which {!to_float} decodes. *)

val write_string : Buffer.t -> string -> unit
(** Append one quoted, escaped string literal — for writers that stream a
    document too large or too hot to build as a {!t} first. *)

val parse : string -> t
(** Raises {!Parse_error} on malformed input or trailing garbage. *)

(** {2 Accessors}

    Total lookups for unpacking requests: [None] on a missing field or a
    shape mismatch, so handlers turn malformed bodies into clean 400s. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on anything else. *)

val to_str : t -> string option
val to_int : t -> int option

val to_float : t -> float option
(** [Int]s widen; the strings ["nan"]/["inf"]/["-inf"] decode. *)

val to_bool : t -> bool option
val to_list : t -> t list option
