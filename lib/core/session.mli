(** The unified session API: one constructor for every driver.

    [start] dispatches a {!Session_spec.t} (explicit, or the one carried
    by {!Run_config.t}) to the Online / Group-by / Hybrid / Parallel
    drivers and erases their per-algorithm session handles into one
    {!handle} of closures, all obeying the same resumable-session model
    as [Online.Session] (advance in bounded quanta, interrupt between
    quanta, outcome once stopped).  The service scheduler's
    [Scheduler.submit] and the SQL engine's [serve] host sessions through
    this surface only. *)

type outcome =
  | Scalar of Online.outcome
  | Groups of Online.group_outcome
  | Hybrid of Hybrid.outcome
  | Parallel of Parallel.outcome

type handle = {
  advance : max_steps:int -> Engine.Driver.stop_reason option;
  interrupt : Engine.Driver.stop_reason -> unit;
  stopped : unit -> Engine.Driver.stop_reason option;
  progress : unit -> Wj_obs.Progress.t option;
      (** current estimate/CI snapshot; [None] for drivers without a
          single scalar progress view (group-by, hybrid, parallel) *)
  outcome : unit -> outcome;
      (** raises [Invalid_argument] while still running (or, for a
          parallel session, when it was interrupted before ever
          advancing) *)
  spec : Session_spec.t;  (** what this handle is running *)
}

val start : ?spec:Session_spec.t -> Run_config.t -> Query.t -> Registry.t -> handle
(** Build (plan selection, driver setup) without performing any walks.
    [spec] defaults to [cfg.spec].  Raises [Invalid_argument] when the
    query admits no walk plan, or on a driver/query mismatch (a group-by
    spec on a query without GROUP BY, and vice versa). *)

val run : ?spec:Session_spec.t -> Run_config.t -> Query.t -> Registry.t -> outcome
(** [start] then drain to completion — the spec-driven superset of
    [Online.run_session]/[Hybrid.run_session]/[Parallel.run_session],
    which remain as thin per-algorithm typed views of the same drivers. *)
