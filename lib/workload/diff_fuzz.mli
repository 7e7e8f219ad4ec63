(** Cross-consistency differential fuzzing: the same workload, the same
    seeded schedule policies, on two backends — atomic (linearizable)
    registers vs per-object sequentially-consistent registers
    ({!Scs_prims.Sc_prims}) — with each run's verdict pair classified
    and SC-only failures shrunk to minimal witness schedules.

    Per run, both backends execute under a policy built from the {e
    same} per-run seed (identical random stream), each driving its own
    simulator with its schedule captured: stale reads change control
    flow, so strictly replaying the linearizable backend's schedule on
    the SC backend would drift exactly when the backends can disagree.
    Determinism comes from the captured schedule instead — an SC-only
    finding replays bit-for-bit with {!Fuzz_run.replay}
    [~backend:(Sim_sc _)] and shrinks soundly with {!Fuzz_run.shrink}.

    The headline classification is [Sc_only]: the linearizable run
    passes, the SC run violates the workload's own correctness property
    (splitter uniqueness, consensus agreement, linearizability of the
    composed history, ...) — even though every individual SC register's
    history is sequentially consistent by construction. Those runs are
    the paper-facing findings: composition over per-object-SC base
    objects is not SC (Perrin et al.). [Lin_only] runs (possible on
    known-failing workloads such as [f1], where control-flow divergence
    makes the SC run dodge the linearizable run's violation) are counted
    but not collected. *)

open Scs_sim

(** The fuzzer's scheduler kinds, without crash injection (crash draws
    would have to be replicated per backend; schedules alone are the
    adversary here). *)
type policy = Fuzz.sched_kind = Uniform | Sticky of float | Weighted | Pct of int

val policy_name : policy -> string

val default_policies : policy list
(** uniform, sticky(0.25), pct(3). *)

type classification =
  | Both_pass
  | Both_violate  (** both backends violate (e.g. known-failing finders) *)
  | Sc_only  (** the finding class: SC violates, linearizable passes *)
  | Lin_only  (** divergent the other way (control-flow dodge) *)
  | Skipped  (** either side skipped or livelocked *)

type finding = {
  df_workload : string;  (** base workload name *)
  df_n : int;
  df_lag : int;
  df_policy : string;
  df_seed : int;  (** per-run derived seed, for provenance *)
  df_error : string;  (** the SC-side violation *)
  df_schedule : int array;
      (** SC-backend witness schedule (shrunk when shrinking is on);
          replays with {!Fuzz_run.replay} on [Sim_sc {lag = df_lag}] *)
  df_orig_turns : int;  (** captured schedule length before shrinking *)
  df_shrink : Shrink.stats option;
}

type policy_stats = {
  dp_policy : string;
  dp_runs : int;
  dp_both_pass : int;
  dp_both_violate : int;
  dp_sc_only : int;
  dp_lin_only : int;
  dp_skipped : int;
}

type report = {
  dr_workload : string;
  dr_n : int;
  dr_seed : int;
  dr_lag : int;
  dr_stats : policy_stats list;
  dr_findings : finding list;  (** collected SC-only findings, run order *)
}

val sc_only_rate : report -> float
(** SC-only violations per run, across all policies — the measured
    non-compositionality rate (EXPERIMENTS.md T16). *)

val run :
  ?policies:policy list ->
  ?runs:int ->
  ?seed:int ->
  ?max_steps:int ->
  ?max_findings:int ->
  ?shrink:bool ->
  Fuzz_run.t ->
  n:int ->
  lag:int ->
  report
(** [run w ~n ~lag] fuzzes [w] differentially: per policy (default
    {!default_policies}), [runs] (default 200) seed-derived runs on both
    backends, classifying each verdict pair. Up to [max_findings]
    (default 3) SC-only failures are collected per report, each shrunk
    ([shrink] defaults to true) on the SC backend. With [lag = 0] the SC
    backend is observationally atomic, so every run classifies as
    [Both_pass]/[Both_violate]/[Skipped] — the differential harness's
    own soundness check (test/test_linearize_diff.ml pins it). Fully
    deterministic given [seed]. *)

val repro_of_finding : Fuzz_run.t -> finding -> Fuzz.Repro.t
(** The finding as a [.scsrepro] artifact; the workload field carries
    the backend-qualified name (["splitter@sim-sc:1"]), so {!Fuzz_run.find_qualified}
    replays it on the backend it was recorded on. *)
