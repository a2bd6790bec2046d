(** Point-in-time view of a {!Metrics.t}, with text and JSON renderings.

    The JSON value round-trips through {!Wj_util.Json}:
    [of_json (Json.parse (Json.to_string (to_json s)))] reconstructs [s]
    exactly (floats print with 17 significant digits; non-finite gauges
    are the strings ["nan"], ["inf"], ["-inf"]).
    Histograms are emitted as [{"buckets": [...], "p50": .., "p95": ..,
    "p99": ..}]; the quantiles are derived data and only the buckets are
    read back (a bare bucket array, the pre-flight-recorder shape, still
    parses). *)

type entry =
  | Counter of int
  | Gauge of float
  | Histogram of int array

type t = (string * entry) list
(** Sorted by name. *)

val of_metrics : Metrics.t -> t
(** Freeze every registered family's current value. *)

val counter_value : t -> string -> int
(** 0 when absent or not a counter. *)

val gauge_value : t -> string -> float
(** 0.0 when absent or not a gauge. *)

val histogram_value : t -> string -> int array
(** [||] when absent or not a histogram. *)

val quantile : int array -> float -> int
(** [quantile buckets q] is the smallest bucket index whose cumulative
    count reaches the [q]-quantile of the histogram's population (0 on an
    empty histogram).  {!render} and {!to_json} report p50/p95/p99 of
    every histogram through this. *)

val equal : t -> t -> bool
(** Structural, with NaN gauges compared equal to themselves. *)

val render : t -> string
(** Human-readable table, grouped counters / histograms / gauges. *)

val to_json : t -> Wj_util.Json.t
(** [{"counters": {..}, "gauges": {..}, "histograms": {..}}], each
    section keyed by family name. *)

val of_json : Wj_util.Json.t -> t
(** Raises [Failure] when the value does not have {!to_json}'s shape. *)
