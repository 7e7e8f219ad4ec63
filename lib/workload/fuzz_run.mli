(** Named fuzzing workloads: the bridge between {!Scs_sim.Fuzz} /
    {!Scs_sim.Shrink} (which know nothing about algorithms) and the
    algorithms under test. Each workload packages a [setup] that spawns
    the processes on a fresh simulator and a [check] that judges the
    finished run, raising {!Scs_sim.Fuzz.Violation} on failure and
    {!Scs_sim.Fuzz.Skip} when a run cannot be judged. Since the scalable
    linearizability checker, no stock workload skips for history size:
    past-cap histories are verified and counted via
    {!Scs_sim.Fuzz.checked_large}.

    Workloads with [expect_failures = true] ([f1], [f2]) are known-failing
    finders that re-discover findings F-1/F-2 by random search — useful
    for exercising the shrinker and for throughput experiments, excluded
    from "fuzz everything and expect green" CI runs. *)

open Scs_sim

type instance = Workload_def.instance = { setup : Sim.t -> unit; check : Sim.t -> unit }

type t = Workload_def.t = {
  name : string;
  describe : string;
  default_n : int;
  expect_failures : bool;  (** violations are the point, not a regression *)
  instantiate : ?backend:Scs_prims.Backend.t -> n:int -> unit -> instance;
      (** Fresh linked [setup]/[check] pair. Each run must call [setup]
          on a fresh sim and eventually [check] on the finished run; the
          pair communicates through a slot set by [setup]. One instance is
          never shared between runs ({!Scs_sim.Fuzz.run} instantiates per
          run), so deferring [check] to a verification domain is safe.
          [backend] (default {!Scs_prims.Backend.default}) selects the
          primitive backend the algorithms run on; only simulator
          backends are valid here ([Native] raises [Invalid_argument]
          from inside [setup]). *)
}

val f1 : t
val f2 : t
val tas_composed : t
val tas_strict : t
val tas_solo_fast : t

val tas_long_lived : t
(** Strict long-lived TAS: every run's history has 200+ operations (well
    past the legacy 62-op checker cap) and 60+ resets, verified by the
    scalable checker plus a per-round compositional cross-check. The
    cross-check only runs when every operation's round is known: a crash
    inside test-and-set can leave a pending operation whose round was
    never recorded, and guessing its partition makes the split unsound
    (see the partition-key hazard test in test/test_history.ml). *)

val splitter : t
val consensus_chain : t
val queue : t

val recoverable_split : t
(** Recoverable SplitConsensus under the crash-recovery model: every
    process runs one proposal with a {!Scs_sim.Sim.set_recovery} entry
    point installed, recoveries are recorded as {!Scs_history.Trace}
    re-invocations, and the check enforces re-invocation trace
    well-formedness, agreement, validity and switch coherence. Clean
    under every policy, including crash-recover ones. *)

val recoverable_bakery : t
(** Recoverable AbortableBakery, same harness and check. Clean. *)

val recoverable_bakery_volatile : t
(** The deliberately unsound bakery variant with {e volatile}
    announcement arrays ([expect_failures = true]): a crash wipes all
    in-flight announcements, letting survivors commit different values
    (finding F-5). The instructive counterpart that shows the
    durability assignment of {!recoverable_bakery} is load-bearing. *)

val all : t list
val find : string -> t option
val names : unit -> string list

val qualified_name : t -> Scs_prims.Backend.t -> string
(** The workload name as recorded in reports and [.scsrepro] artifacts:
    the plain name for the default backend, ["name@<backend>"] (e.g.
    ["splitter@sim-sc:1"]) otherwise. *)

val find_qualified : string -> (t * Scs_prims.Backend.t) option
(** Parse a possibly backend-qualified workload name back into the
    workload and its backend; plain names map to the default backend. *)

val fuzz :
  ?backend:Scs_prims.Backend.t ->
  ?policies:Fuzz.policy_spec list ->
  ?runs:int ->
  ?time_budget:float ->
  ?max_violations:int ->
  ?seed:int ->
  ?max_steps:int ->
  ?gen_domains:int ->
  ?obs:Scs_obs.Obs.t ->
  t ->
  n:int ->
  Fuzz.report
(** {!Fuzz.run} with a fresh instance of the workload per run;
    [gen_domains] fans generation and checking out over domains and
    [obs] attaches an observability sink to every run's simulator, as
    documented there. [backend] selects the primitive backend; the
    report and its repro artifacts carry the {!qualified_name}. *)

type replay_outcome =
  | Violates of string  (** the recorded violation reproduces *)
  | Passes  (** replays cleanly: the check holds on this schedule *)
  | Skipped of string
  | Drifted of int  (** schedule does not replay; offending pid *)

val replay :
  ?backend:Scs_prims.Backend.t ->
  t ->
  n:int ->
  schedule:int array ->
  crashes:Crash.t list ->
  replay_outcome
(** Strict scripted replay of a recorded triple, judged by the
    workload's check, on the backend the triple was recorded on. *)

val shrink :
  ?backend:Scs_prims.Backend.t ->
  ?max_rounds:int ->
  ?max_steps:int ->
  t ->
  n:int ->
  schedule:int array ->
  crashes:Crash.t list ->
  (int array * Crash.t list) * Shrink.stats
(** {!Shrink.minimize} on a fresh instance of the workload. *)
