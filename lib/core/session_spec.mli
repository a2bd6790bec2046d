(** Which wander-join driver a session runs, plus its per-algorithm
    knobs, as a first-class value.

    The unified entry points — {!Session.start}, [Scheduler.submit],
    [Sql.Engine.serve] — dispatch on one [t] instead of growing one
    entry point per algorithm.  Shared knobs (seed, budgets, clock, sink,
    backend) stay on {!Run_config.t}; everything here is
    algorithm-specific. *)

type online = {
  eager_checks : bool;
      (** vet the full path after binding each step (default [true]) *)
  on_report : (Wj_obs.Progress.t -> unit) option;
      (** periodic progress callback, as in [Online.run_session] *)
}

type group_by = {
  on_group_report :
    (float -> (Wj_storage.Value.t * Wj_obs.Progress.t) list -> unit) option;
}

type hybrid_config = {
  replicates : int;  (** default 8 *)
  max_paths_per_component : int;
      (** freeze a component's walking once this many successful paths
          are stored; default 512 *)
  trial_walks_per_plan : int;  (** per-component plan selection; default 50 *)
}
(** The hybrid driver's knobs ([Hybrid.config] re-exports this type). *)

type hybrid = { config : hybrid_config; max_rounds : int option }

type parallel = {
  domains : int option;
      (** default [Domain.recommended_domain_count ()] *)
  walks_per_domain : int option;
}

type t =
  | Online of online
  | Group_by of group_by
  | Hybrid of hybrid
  | Parallel of parallel

val default_hybrid_config : hybrid_config
(** [{ replicates = 8; max_paths_per_component = 512;
      trial_walks_per_plan = 50 }] *)

val default_online : t
(** [Online { eager_checks = true; on_report = None }] *)

val default : t
(** = {!default_online}: the single-domain online driver. *)

val online :
  ?eager_checks:bool -> ?on_report:(Wj_obs.Progress.t -> unit) -> unit -> t

val group_by :
  ?on_group_report:
    (float -> (Wj_storage.Value.t * Wj_obs.Progress.t) list -> unit) ->
  unit ->
  t

val hybrid : ?config:hybrid_config -> ?max_rounds:int -> unit -> t
val parallel : ?domains:int -> ?walks_per_domain:int -> unit -> t

val describe : t -> string
(** Short human label ("online", "group-by", "hybrid(replicates=8)", …)
    for scheduler labels and logs. *)
