(** Simulated test-and-set workloads: the glue between the algorithms, the
    deterministic scheduler and the checkers. Every experiment and most
    tests funnel through this module. *)

open Scs_spec
open Scs_history
open Scs_composable
open Scs_sim

type algo =
  | Composed  (** the speculative A1 ∘ A2 of Section 6, verbatim *)
  | Strict  (** A1 (strict variant) ∘ A2: strictly linearizable *)
  | Solo_fast  (** the Appendix B variant *)
  | Hardware  (** raw hardware TAS *)
  | Tournament  (** AGTV-style register-only randomized TAS *)

val algo_name : algo -> string

type op_record = {
  pid : int;
  round : int;  (** long-lived round (0 for one-shot runs) *)
  resp : Objects.tas_resp;
  stage : Scs_tas.One_shot.stage option;  (** [None] for baselines *)
  steps : int;
  rmws : int;
  raws : int;  (** RAW fences *)
  invoke_ts : int;
  resp_ts : int;
}

type result = {
  ops : op_record list;
  outer : (Objects.tas_req, Objects.tas_resp, Tas_switch.t) Trace.event array;
      (** client-level trace: invokes and commits only *)
  a1 : (Objects.tas_req, Objects.tas_resp, Tas_switch.t) Trace.event array;
      (** module-level trace of A1 (invoke/commit/abort); empty for
          baselines *)
  a2 : (Objects.tas_req, Objects.tas_resp, Tas_switch.t) Trace.event array;
      (** module-level trace of A2 (init/commit) *)
  mem : Mem_event.t array;  (** low-level memory steps *)
  sim : Sim.t;
  schedule : int array;
      (** the complete executed pid schedule, one entry per scheduler
          turn; replaying it with [Policy.scripted ~strict:true] (under
          the same crash wrapper) reproduces this run exactly *)
  registers : int;  (** base objects allocated *)
  rmw_objects : int;
  round_of_req : (int, int) Hashtbl.t;  (** request id → long-lived round *)
}

(** {1 The one TAS builder}

    Every simulated TAS object is allocated here, whichever engine runs
    it: the traced runs below, {!Obs_run}'s targets and {!Fuzz_run}'s
    one-shot workloads. *)

type tas = {
  fast : pid:int -> (Objects.tas_resp, Tas_switch.t) Outcome.t;
      (** the fast module, entered with no switch value; a baseline's
          single module always commits *)
  fallback : (pid:int -> Tas_switch.t -> Objects.tas_resp) option;
      (** the module the fast module's switch value initialises; [None]
          for the baselines *)
  handoff : string;  (** the obs handoff label at the seam *)
  coins : Scs_util.Rng.t array;
      (** per-pid coin streams, [Rng.create (pid + 1)] at build; only the
          tournament draws coins, every other algorithm has none *)
}

val build : n:int -> algo:algo -> (module Scs_prims.Prims_intf.S) -> tas
(** Allocate [algo]'s objects on the primitives module, in the order
    and under the names every runner uses. *)

val reseed_coins : tas -> Scs_util.Rng.t -> unit
(** Replace each coin stream, in pid order, by a split of the rng. *)

val test_and_set :
  ?obs:Scs_obs.Obs.t ->
  ?on_switch:(Tas_switch.t -> unit) ->
  tas ->
  pid:int ->
  Objects.tas_resp * Scs_tas.One_shot.stage option
(** The composed operation: the fast module and, on abort, the fallback
    fed the switch value. An abort first calls [on_switch] (default: no
    op) and then counts an abort and a handoff on [obs] (default
    {!Scs_obs.Obs.null}). The stage is [None] for the baselines. *)

type tas_trace = (Objects.tas_req, Objects.tas_resp, Tas_switch.t) Trace.t

val spawn_traced :
  backend:Scs_prims.Backend.t -> n:int -> algo:algo -> Sim.t -> tas_trace
(** Build [algo] on the simulator and spawn one traced [test_and_set]
    per process (request id = pid); returns the client-level trace. *)

(** {1 Traced runs} *)

val one_shot :
  ?seed:int ->
  ?backend:Scs_prims.Backend.t ->
  ?trace_mem:bool ->
  ?crashes:(int * int) list ->
  ?obs:Scs_obs.Obs.t ->
  n:int ->
  algo:algo ->
  policy:(Scs_util.Rng.t -> Policy.t) ->
  unit ->
  result
(** Every process performs exactly one test-and-set. [policy] receives a
    deterministic sub-stream of [seed]. [backend] (default
    {!Scs_prims.Backend.default}) selects the simulator primitive
    backend. [crashes] are [(pid, after_steps)] pairs. [obs] (default
    disabled) receives an operation bracket per test-and-set plus an
    abort + switch-value handoff whenever A1 aborts into A2, so
    per-operation steps and contention can be measured. *)

val long_lived :
  ?seed:int ->
  ?backend:Scs_prims.Backend.t ->
  ?trace_mem:bool ->
  ?crashes:(int * int) list ->
  ?strict:bool ->
  ?obs:Scs_obs.Obs.t ->
  n:int ->
  ops_per_proc:int ->
  policy:(Scs_util.Rng.t -> Policy.t) ->
  unit ->
  result
(** The resettable object of Algorithm 2 (always the Composed algorithm):
    each process runs [ops_per_proc] cycles of test-and-set followed, on a
    win, by reset. [round] in each {!op_record} is the [Count] value the
    operation started from. The outer trace uses the one-shot TAS request
    type per round; use [rounds_of] to regroup it. *)

val rounds_of :
  result -> (Objects.tas_req, Objects.tas_resp, Tas_switch.t) Trace.operation list list
(** Long-lived operations grouped by round, for
    {!Scs_history.Tas_lin.check_long_lived}. *)

val explore_one_shot :
  ?max_schedules:int ->
  ?max_depth:int ->
  ?por:bool ->
  ?domains:int ->
  ?backend:Scs_prims.Backend.t ->
  n:int ->
  algo:algo ->
  unit ->
  Explore.outcome * int
(** Exhaustive bounded model checking of the one-shot workload: every
    process performs exactly one [test_and_set], every maximal schedule's
    client-level history is checked with the specialised TAS
    linearizability checker. Returns the exploration outcome and the
    number of non-linearizable schedules (0 = safe on every explored
    interleaving). [por] and [domains] are passed through to
    {!Explore.exhaustive}; the violation counter is domain-safe.
    [backend] selects the simulator primitive backend — exploring under
    [Sim_sc] counts how many schedules break strict linearizability once
    registers are only per-object SC. *)

(** {1 Derived judgements} *)

val winners : result -> op_record list
val step_contended_ops : result -> (op_record * bool) list
(** Each operation paired with "did it run under step contention"
    (requires [trace_mem:true]). *)
