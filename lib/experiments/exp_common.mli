(** Shared helpers for the experiment harness. Each experiment module
    prints the table(s)/series recorded in EXPERIMENTS.md and is
    addressable by id from both [bench/main.exe] and the [scs] CLI. *)

val section : string -> string -> unit
(** [section id title] prints the experiment banner. *)

val note : string -> unit

val solo_ns : int list
(** The process counts of the solo-cost sweeps (T1, T3, T4, T13): powers
    of two up to 32, then the simulator's cap {!Scs_sim.Sim.max_processes}. *)

val mean_steps : Scs_workload.Tas_run.op_record list -> float
val mean_rmws : Scs_workload.Tas_run.op_record list -> float
val mean_raws : Scs_workload.Tas_run.op_record list -> float

val fast_fraction : Scs_workload.Tas_run.op_record list -> float
(** Fraction of operations resolved by the register-only module. *)

val f2 : float -> string
val f1 : float -> string
