(** Observability-instrumented measurement runs: the engine behind
    [scs stats], [bench/emit_json.ml] ([BENCH_*.json]) and experiment
    T13.

    A {e target} is a workload whose every high-level operation is
    bracketed on a {!Scs_obs.Obs} sink (as {!Tas_run} / {!Cons_run} do
    with [~obs]), so a batch of seeded
    runs yields per-operation step counts and contention measurements
    matching the paper's definitions — plus a schedules/sec throughput
    figure for the bench trajectory. See [docs/metrics.md] for how
    each aggregate maps to the JSON schema. *)

open Scs_sim

type target =
  | A1  (** bare A1: one [apply] per process (Theorem 3's O(1) object) *)
  | Tas of Tas_run.algo
  | Cons of Cons_run.algo
  | Shard
      (** the 2-shard keyed service ({!Scs_shard}): each client op is
          bracketed under the owning shard's label ([shard0]/[shard1]),
          so the aggregate's [ops] split into per-shard profiles *)

val target_name : target -> string
val target_of_string : string -> target option
val target_names : unit -> string list

(** Aggregate of one measurement batch. *)
type agg = {
  workload : string;
  backend : string;  (** {!Scs_prims.Backend.name} of the backend measured *)
  n : int;
  runs : int;  (** completed simulations *)
  ops : Scs_obs.Obs.op_metric list;  (** every bracketed operation, all runs *)
  steps : Scs_util.Stats.summary;  (** per-operation own steps *)
  step_cont : Scs_util.Stats.summary;  (** per-operation step contention *)
  max_interval_contention : int;
  aborts : int;
  handoffs : int;
  crashes : int;
  schedules_per_sec : float;  (** runs / wall-clock, instrumentation included *)
  objects : (string * int * int) list;
      (** per-object step census, [(name, steps, rmws)], busiest first *)
}

val measure :
  ?runs:int ->
  ?seed:int ->
  ?backend:Scs_prims.Backend.t ->
  ?policy:(Scs_util.Rng.t -> Policy.t) ->
  ?crash_prob:float ->
  ?gen_domains:int ->
  target ->
  n:int ->
  agg
(** [measure target ~n] executes [runs] (default 200) seeded
    simulations of the target with a fresh obs sink per batch and
    aggregates. [policy] defaults to {!Policy.random} per run (seeded
    from [seed], default 42); [backend] (default
    {!Scs_prims.Backend.default}) selects the simulator primitive
    backend, so the same step/contention aggregates can be measured
    under per-object-SC registers; [crash_prob] (default 0) independently
    crashes each pid with that probability after 1–15 steps, drawn by
    the fuzzer's {!Scs_sim.Fuzz.gen_crash_events}. Raises [Invalid_argument] if the
    batch completes zero operations. The batch runs on one simulator
    per stream, rewound with {!Scs_sim.Sim.clear} and {!install}ed
    again before each run after the first.

    [gen_domains] (default 1) splits the batch into that many streams
    with {!Scs_sim.Streams.run}, each with its own simulator and private
    sink, merged deterministically at join (stream order). Stream 0
    generates the single-domain stream; higher streams use derived seeds,
    so per-op metrics aggregate a different (but seed-stable) sample of
    schedules. A custom [policy] closure must be domain-safe. *)

(** {1 One run}

    One run of {!measure}'s batch, exposed so a fresh-simulator loop can
    be checked against the batch's reuse of one simulator: draw
    [crashes = Fuzz.gen_crash_events ~prob:crash_prob ~recover:false rng
    n 15], then [pol_rng = install ~backend ~obs ~target ~n sim rng],
    then [Sim.run ~crashes sim (policy pol_rng)], with [crashes] emptied
    for [Cons] targets. *)

val install :
  backend:Scs_prims.Backend.t ->
  obs:Scs_obs.Obs.t ->
  target:target ->
  n:int ->
  Sim.t ->
  Scs_util.Rng.t ->
  Scs_util.Rng.t
(** [install ~backend ~obs ~target ~n sim rng] allocates the target's
    shared objects on [sim] (empty, and whose sink must be [obs]),
    spawns one bracketed operation script per pid, reseeds the
    target's own randomness from [rng] and returns the policy's rng. *)

val solo : ?backend:Scs_prims.Backend.t -> target -> n:int -> agg
(** One run in which process 0 executes alone ({!Policy.solo}): the
    uncontended cost the appendix complexity claims are stated for.
    The returned [steps] summary has [n = 1] sample (p0's single
    operation, or its first for chain targets). *)

val to_record : agg -> Scs_obs.Trajectory.record
(** Project onto the [BENCH_*.json] record shape: p50/p99 of
    per-operation steps, max interval contention, schedules/sec. *)
