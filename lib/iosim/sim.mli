(** Glue: turn walker/ripple access streams into virtual-clock time.

    A simulation owns a buffer pool and a virtual clock.  The walker
    {!sink} and the {!ripple_tracer} it hands out charge the clock per
    access: buffer-pool hits cost RAM time, misses cost a random I/O;
    index probes cost cached-interior traversal time.  Running any driver (wander join, ripple join) against the
    virtual clock then reproduces the paper's limited-memory setting. *)

type t

val create :
  ?model:Cost_model.t -> pool_pages:int -> clock:Wj_util.Timer.t -> unit -> t
(** [clock] must be virtual (see {!Wj_util.Timer.virtual_}). *)

val model : t -> Cost_model.t
val pool : t -> Wj_storage.Buffer_pool.t
val clock : t -> Wj_util.Timer.t

val ripple_tracer : t -> pos:int -> slot:int -> sequential:bool -> unit
(** Tracer for {!Wj_ripple.Ripple.run}: sequential retrievals charge one
    sequential I/O on the first touch of each storage page; index-sampled
    retrievals charge a random I/O per miss.  Ripple keeps this untyped
    hook because the typed [Row_access] event carries no [sequential]
    flag. *)

val sink : ?metrics:Wj_obs.Metrics.t -> ?trace:Wj_obs.Trace.t -> t -> Wj_obs.Sink.t
(** The walker's side of the simulation: a sink whose event callback
    charges tuple page accesses ([Row_access]) through the pool and index
    probes ([Index_probe]) at cached cost — pass it as the run's
    {!Wj_core.Run_config.t} sink — and, when [metrics] is given, refreshes
    the pool/clock gauges ([pool.hits], [pool.misses], [pool.accesses],
    [pool.resident], [pool.capacity], [sim.charged_seconds]) on every
    [Report] and [Stopped] event.  When [trace] is given (create it over
    the sim's virtual clock for consistent timestamps), each charge is
    additionally recorded as an ["io.row_access"] / ["io.index_probe"]
    complete-span whose duration is the virtual seconds charged, and the
    trace rides in the returned sink so downstream producers (driver,
    scheduler) record their spans into the same buffer. *)

val attach_pool_events : t -> Wj_obs.Sink.t -> unit
(** Forward every buffer-pool access as a typed [Pool_hit] / [Pool_miss]
    event into the sink's callback (no-op for sinks without one).  Replaces
    any previously installed pool observer. *)

val export_gauges : t -> Wj_obs.Metrics.t -> unit
(** One-shot snapshot of the pool/clock gauges listed under {!sink}. *)

val charge_scan : t -> rows:int -> unit
(** Charge a full sequential table scan (full-join baseline). *)

val charge_seconds : t -> float -> unit
(** Charge arbitrary CPU work (e.g. per-combo processing). *)

val charged_seconds : t -> float
(** Total virtual time charged through this simulation since creation —
    every [charge_*] call and tracer/sink access accumulates here. *)

val warm : t -> table:int -> rows:int -> unit
(** Pre-load a table's pages (sufficient-memory scenario), without charging
    time, counting statistics, or emitting pool events (any observer
    installed by {!attach_pool_events} is detached). *)
