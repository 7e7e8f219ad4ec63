(** Schedule policies: adversaries that pick which process moves next.

    A policy returns the runnable pid to schedule, or a negative int to
    stop, and reads the runnable set through {!Sim.runnable_bits}, so
    the scheduling loop ({!Sim.run}) allocates nothing per turn. A
    custom policy is any [Sim.t -> int] function.

    Policies are stateful closures, so every function here returns a fresh
    policy; reusing one across runs would leak state between simulations.
    The randomized policies' Rng streams are pinned (test/test_policy.ml):
    a seed names the same schedule across versions. *)

type t = Sim.t -> int

exception Replay_drift of int
(** Raised by strict scripted policies when the scripted pid is not
    runnable — the recorded schedule does not replay against this
    execution. Carries the offending pid. [Explore.Replay_drift] is an
    alias of this exception. *)

val round_robin : unit -> t
(** Cycle over runnable processes in pid order. *)

val random : Scs_util.Rng.t -> t
(** Uniform choice among runnable processes at every turn. *)

val weighted : Scs_util.Rng.t -> float array -> t
(** Choose among runnable processes with the given per-pid weights. A pid
    with weight 0 never runs. Weights need not be normalised. *)

val sticky : Scs_util.Rng.t -> switch_prob:float -> t
(** Keep scheduling the same process; at each turn, switch to a uniformly
    random runnable process with probability [switch_prob]. [0.0] is
    essentially sequential (contention-free), [1.0] is {!random} — a
    single dial for the contention sweeps of experiment F1. *)

val pct : Scs_util.Rng.t -> k:int -> depth:int -> t
(** PCT-style priority scheduler (Burckhardt et al., ASPLOS 2010): assign
    each process a distinct random priority, always run the
    highest-priority runnable process, and at [k - 1] turn indices drawn
    uniformly from [1, depth] demote the process about to run below all
    others. Finds any bug requiring at most [k] ordering constraints with
    probability ≥ 1/(n·depth^(k-1)) per run, regardless of how rare the
    bug is under uniform random scheduling. *)

val solo : Sim.pid -> t
(** Run only [pid]; stop when it finishes (other processes never move). *)

val sequential : unit -> t
(** Run process 0 to completion, then 1, and so on: no contention at all. *)

val scripted : ?strict:bool -> Sim.pid array -> t
(** Follow the given pid sequence; stop when the script is exhausted.
    By default, entries that are not runnable are silently skipped — fine
    for exploratory use, but it mangles replays: the executed schedule is
    no longer the scripted one. With [~strict:true] a non-runnable entry
    raises {!Replay_drift} instead; all shrinker and replay paths use
    strict mode. *)

val scripted_then : ?strict:bool -> Sim.pid array -> t -> t
(** Follow the script, then delegate to the fallback policy. [?strict]
    as in {!scripted}. *)

val stop_when : (Sim.t -> bool) -> t -> t
(** Stop as soon as the predicate holds; otherwise delegate. *)
