(** The one session entry point.

    [start] picks the driver from the query itself — a GROUP BY query runs
    the per-group driver (§3.5), anything else the scalar online driver —
    and erases both session types into one {!handle} of closures, all
    obeying the resumable-session model of [Online.Session] (advance in
    bounded quanta, interrupt between quanta, outcome once stopped).  The
    service scheduler's [Scheduler.submit], and through it the SQL
    engine's [serve] and the [wjd] daemon, host sessions through this
    surface only. *)

type outcome =
  | Scalar of Online.outcome
  | Groups of Online.group_outcome

type handle = {
  advance : max_steps:int -> Engine.Driver.stop_reason option;
  interrupt : Engine.Driver.stop_reason -> unit;
  progress : unit -> Wj_obs.Progress.t option;
      (** current estimate/CI snapshot; [None] for a group-by session,
          which has no single scalar progress view *)
  outcome : unit -> outcome;  (** raises [Invalid_argument] while still running *)
}

val start : Run_config.t -> Query.t -> Registry.t -> handle
(** Build (plan selection, driver setup) without performing any walks:
    [Online.start_group_by_session] when [q.group_by] is [Some _],
    [Online.start_session] otherwise.  Raises [Invalid_argument] when the
    query admits no walk plan. *)
