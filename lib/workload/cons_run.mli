(** Simulated abortable-consensus workloads (experiments T3/T4). *)

open Scs_composable
open Scs_sim

type algo =
  | Split  (** SplitConsensus: O(1) solo, commits absent interval contention *)
  | Bakery  (** AbortableBakery: O(n) solo, commits absent step contention *)
  | Cas  (** wait-free CAS consensus *)
  | Chain3  (** Split → Bakery → CAS composition *)

val algo_name : algo -> string

type op = {
  pid : int;
  proposal : int;
  outcome : (int option, int option) Outcome.t;
  steps : int;
  rmws : int;
}

type result = {
  ops : op list;
  sim : Sim.t;
  schedule : int array;  (** the complete executed pid schedule *)
  agreement : bool;  (** all committed non-⊥ decisions equal *)
  validity : bool;  (** every committed decision was somebody's proposal *)
}

val make_instance :
  algo:algo ->
  n:int ->
  (module Scs_prims.Prims_intf.S) ->
  'a Scs_consensus.Consensus_intf.t
(** Build the algorithm instance on a primitives module (all mutable
    state lives in the underlying simulator's objects); {!Obs_run}
    builds one per run. *)

val propose :
  obs:Scs_obs.Obs.t ->
  algo:algo ->
  'a Scs_consensus.Consensus_intf.t ->
  pid:int ->
  'a ->
  ('a option, 'a option) Outcome.t
(** One proposal with no inherited value, bracketed on [obs] under
    [algo]'s name against object 0: an abort count per [Abort] and a
    [switch] handoff per adopted switch value. *)

val run :
  ?seed:int ->
  ?backend:Scs_prims.Backend.t ->
  ?obs:Scs_obs.Obs.t ->
  n:int ->
  algo:algo ->
  policy:(Scs_util.Rng.t -> Policy.t) ->
  unit ->
  result
(** Process [i] proposes [100 + i]. [backend] (default
    {!Scs_prims.Backend.default}) selects the simulator primitive
    backend. [obs] (default disabled) gets one operation bracket per
    propose (all against object 0, the consensus instance), an abort
    count per [Abort] outcome and a handoff per adopted switch value —
    the inputs to the abort-rate-vs-contention analysis of experiment
    T13. *)

val solo_steps : algo -> n:int -> int
(** Steps taken by process 0 deciding alone — the solo/uncontended step
    complexity the appendix algorithms are measured by. *)
