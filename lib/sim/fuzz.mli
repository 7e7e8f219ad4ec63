(** Randomized schedule fuzzing with deterministic replay.

    The fuzz engine runs seeded batches of simulations against a [check]
    predicate under a portfolio of schedule policies — uniform random,
    sticky, weighted, PCT-style priority scheduling, and crash-injecting
    variants — and records the complete pid schedule of every run
    ({!Sim.run}'s [?capture]). A failure is therefore deterministic by
    construction: the recorded [(n, schedule, crashes)] triple replays
    bit-for-bit with {!replay} (strict scripting, {!Policy.Replay_drift}
    on divergence), independent of RNG state, and serialises to a compact
    [.scsrepro] artifact ({!Repro}) suitable for committing as a
    regression test. {!Shrink.minimize} reduces such triples to locally
    minimal counterexamples. *)

exception Violation of string
(** Raised by [check] functions to signal a property violation. The
    message is recorded in the {!violation} and the repro artifact. *)

exception Skip of string
(** Raised by [check] functions when a run cannot be judged. Counted in
    {!policy_stats.s_skipped}, never treated as a failure. Since the
    scalable linearizability checker landed, no stock workload skips for
    history size any more — large histories are checked and counted
    via {!checked_large} instead. *)

val large_history : int
(** 62: the operation count beyond which a history counts as large —
    the seed checker's capacity, past which such runs used to be
    skipped. *)

val checked_large : unit -> unit
(** Called by [check] functions that verified a history of more than
    {!large_history} operations. Counted per policy in
    {!policy_stats.s_checked_large}; safe to call from gen domains. *)

val checked_large_total : unit -> int
(** Process-wide number of {!checked_large} calls so far. *)

(** {1 Scheduler portfolio} *)

type sched_kind =
  | Uniform  (** {!Policy.random} *)
  | Sticky of float  (** {!Policy.sticky} with the given switch probability *)
  | Weighted  (** {!Policy.weighted} with fresh skewed per-run weights *)
  | Pct of int  (** {!Policy.pct} with [k] preemption points, depth [16n] *)

type policy_spec = {
  kind : sched_kind;
  crash_faults : bool;  (** inject crash events (probability 1/4 per pid) *)
  crash_recover : bool;
      (** crash-recovery mode: injected crashes usually carry a recovery
          delay (and sometimes a second crash on the recovered
          incarnation) instead of being terminal. Only meaningful with
          [crash_faults = true]; workloads without
          {!Sim.set_recovery} entry points degrade gracefully — the
          events fire as terminal crashes. *)
}

val spec_name : policy_spec -> string
(** Stable display name, e.g. ["sticky(0.25)"], ["uniform+crash"],
    ["pct(3)+crashrec"]. *)

val default_portfolio : policy_spec list
(** uniform, sticky(0.25), weighted, pct(3), uniform+crash — unchanged
    since the fail-stop era, so existing seed streams stay stable. *)

val recover_portfolio : policy_spec list
(** uniform+crashrec, sticky(0.25)+crashrec, pct(3)+crashrec: the
    crash-recovery hunting portfolio ([`scs fuzz --policy
    crash-recover`]). *)

val portfolio_names : string list
(** Valid arguments to {!portfolio_of_string}, for CLI error messages. *)

val portfolio_of_string : string -> policy_spec list option
(** Named portfolios: ["default"]/["all"] ({!default_portfolio}),
    ["uniform"], ["sticky"], ["weighted"], ["pct"], ["crash"] (single
    specs) and ["crash-recover"] ({!recover_portfolio}). *)

val base_policy : sched_kind -> Scs_util.Rng.t -> int -> Policy.t
(** [base_policy kind rng n]: the policy one run of [kind] uses at [n]
    processes, drawing from [rng] ([Weighted] draws its per-run weights
    first). *)

val gen_crash_events :
  prob:float -> recover:bool -> Scs_util.Rng.t -> int -> int -> Crash.t list
(** [gen_crash_events ~prob ~recover rng n max_crash_steps]: one run's
    crash events — each pid independently with probability [prob], after
    1..[max_crash_steps] of its steps; with [recover], usually
    recovering and sometimes crashing again. {!run} passes [prob = 1/4];
    [scs stats] passes its [--crash-prob]. At [prob <= 0] it returns [[]]
    without drawing from [rng]. *)

(** {1 Reports} *)

type violation = {
  v_workload : string;
  v_n : int;
  v_policy : string;
  v_seed : int;  (** per-run derived seed, for provenance *)
  v_schedule : int array;  (** complete captured pid schedule *)
  v_crashes : Crash.t list;
  v_error : string;
}

type policy_stats = {
  s_policy : string;
  s_runs : int;
  s_turns : int;  (** total scheduler turns across all runs *)
  s_violations : int;
  s_skipped : int;  (** {!Skip} + livelocked runs *)
  s_checked_large : int;
      (** runs whose history exceeded {!large_history} operations (see
          {!checked_large}) *)
  s_check_wall : float;
      (** seconds spent inside [check], summed across runs (and across
          gen streams, so it can exceed elapsed wall time) *)
  s_gen_wall : float;
      (** wall-clock seconds spent generating schedules: a stream's loop
          time minus its checks, taken as the critical path (max) over
          gen streams — reported as [gen/s] *)
  s_wall : float;
  s_first_failure : (int * float) option;
      (** run index and wall-clock seconds of the first violation *)
  s_step_p50 : float;
  s_step_p99 : float;
      (** percentiles of per-run {e total memory steps} across the
          policy's runs — the cost column of the fuzz report *)
  s_max_contention : int;
      (** maximum schedule-level step contention over the policy's
          runs: per run, the max over processes of the number of turns
          other processes take inside that process's active window
          (first to last captured turn). An upper bound on the paper's
          per-operation step contention, computed from the captured
          schedule alone so the simulator hot path is untouched. *)
}

type report = {
  r_workload : string;
  r_n : int;
  r_seed : int;
  r_stats : policy_stats list;
  r_violations : violation list;
}

val schedules_per_sec : policy_stats -> float
(** Runs over total elapsed wall: generation + verification. *)

val gen_per_sec : policy_stats -> float
(** Runs over {!policy_stats.s_gen_wall} — schedule-generation
    throughput alone. *)

val check_per_sec : policy_stats -> float
(** Runs over {!policy_stats.s_check_wall} — verification throughput
    alone (CPU-seconds across gen streams). *)

(** {1 Engine} *)

val run :
  ?policies:policy_spec list ->
  ?runs:int ->
  ?time_budget:float ->
  ?max_violations:int ->
  ?seed:int ->
  ?max_steps:int ->
  ?max_crash_steps:int ->
  ?gen_domains:int ->
  ?obs:Scs_obs.Obs.t ->
  workload:string ->
  n:int ->
  instantiate:(unit -> (Sim.t -> unit) * (Sim.t -> unit)) ->
  unit ->
  report
(** [run ~workload ~n ~instantiate ()] fuzzes: for each policy spec (in
    order), up to [runs] simulations (default 1000) or [time_budget]
    wall-clock seconds, each policy stopping once it has found
    [max_violations] violations of its own (so every portfolio member
    reports its own time-to-first-failure). Each run calls [instantiate]
    for a fresh linked [(setup, check)] pair, applies [setup] (which
    spawns the processes) to the stream's simulator — one per policy and
    stream, rewound with {!Sim.clear} before each reuse — drives it
    under the policy with the schedule captured, then applies [check]
    inline, interpreting {!Violation} as a failure and {!Skip} /
    {!Sim.Livelock} as a skipped run. Crash-fault specs crash each pid
    with probability 1/4 after 1..[max_crash_steps] (default 15) memory
    steps ({!gen_crash_events}).

    [gen_domains] (default 1) splits the run range into that many
    streams with {!Streams.run}. Each stream has its own seed stream,
    simulator and (when [obs] is enabled) private obs sink, and checks
    its own runs; [check] closures must therefore be domain-safe in what
    they touch beyond their own run. Reports, failure lists and obs
    sinks are merged deterministically at join (stream order for sinks,
    global run order for violations). Stream 0's seed stream is the
    sequential one, so [gen_domains = 1] is fully deterministic given
    [seed] and higher values explore different (per-stream) seed
    streams. [max_violations] becomes a shared budget across streams.

    Verdicts, schedules and obs counters are those of a fresh simulator
    per run: test/test_pool.ml keeps that fresh-simulator loop as the
    oracle for simulator reuse.

    [obs] (default {!Scs_obs.Obs.null}) is attached to every run's
    simulator, aggregating counters across the whole campaign; it
    never changes verdicts (executions are driven by the captured
    policies alone — asserted by the fuzz test suite). The engine's
    own cost columns ([s_step_p50]/[s_step_p99]/[s_max_contention])
    are computed without the sink and are always present. *)

val replay :
  ?max_steps:int ->
  n:int ->
  setup:(Sim.t -> unit) ->
  schedule:int array ->
  crashes:Crash.t list ->
  unit ->
  Sim.t
(** Re-execute a recorded run against a fresh simulator using
    [Policy.scripted ~strict:true] under the same crash events;
    raises {!Policy.Replay_drift} if the schedule does not replay.
    Recovery re-admission is clock-driven, so recovering crashes replay
    as deterministically as terminal ones. The caller applies its check
    to the returned sim. *)

(** {1 Repro artifacts}

    Textual [.scsrepro] serialization of one failing run:
    {v
scsrepro 1
workload f1
n 3
seed 123456
policy sticky(0.25)
error not strictly linearizable
crashes 1@3+4,2@5
schedule 0 0 0 1 1 ...
    v}
    [crashes] is [-] when empty; [p\@k] is a terminal crash of process
    [p] after [k] of its memory steps, [p\@k+d] one that re-admits its
    recovery code after [d] further global steps ({!Crash}). The format
    is a backward-compatible extension of the fail-stop artifacts —
    every pre-recovery [.scsrepro] file still parses. *)

module Repro : sig
  type t = {
    workload : string;
    n : int;
    seed : int;
    policy : string;
    error : string;
    crashes : Crash.t list;
    schedule : int array;
  }

  val of_violation : violation -> t
  val to_string : t -> string

  val of_string : string -> t
  (** Raises [Failure] on malformed input. *)

  val save : string -> t -> unit
  val load : string -> t
end

val render_lanes :
  ?title:string -> n:int -> schedule:int array -> crashes:Crash.t list -> unit -> string
(** Per-process lane view of a schedule: one row per pid, [#] on its
    turns, [.] elsewhere, plus a turn ruler. Crash markers are rendered
    in-lane: an [X] at the point where the crash policy retired the
    process (one cell past its last executed turn — see {!Sim.run}'s
    crash injection) and, for a crash that
    later recovers, an [R] on the process's first turn after the crash
    (the re-admitted recovery code's first turn) — so a recovered crash
    reads [X…R] along the lane while a terminal one is a bare [X]. The
    row label carries [crash\@k] / [crash\@k+d] per event, flagged
    [(unfired)] when the process finished before reaching [k] steps so
    that event never took effect. *)
