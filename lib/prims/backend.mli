(** The primitive-backend seam.

    Every simulator-driven harness (fuzzing, exploration, observability
    batches, the load harness's selfcheck) instantiates algorithms
    against a {!Prims_intf.S}; this type names which implementation to
    use so they can all select it uniformly:

    - [Sim_lin] — {!Sim_prims}: atomic (linearizable) simulated objects,
      the default;
    - [Sim_sc { lag }] — {!Sc_prims}: per-object sequentially-consistent
      registers with reads up to [lag] writes stale, RMW objects atomic;
    - [Native] — {!Native_prims}: real [Atomic]-based primitives on
      OCaml 5 domains (no simulator; {!sim_prims} rejects it). *)

type t = Sim_lin | Sim_sc of { lag : int } | Native

val default : t
(** [Sim_lin]. *)

val name : t -> string
(** Stable display/parse name: ["sim-lin"], ["sim-sc:<lag>"],
    ["native"]. [name] and {!of_string} round-trip. *)

val of_string : string -> (t, string) result
(** Accepts ["sim-lin"]/["lin"], ["sim-sc"]/["sc"] (default lag),
    ["sim-sc:<lag>"]/["sc:<lag>"], ["native"]. The error message for an
    unknown name enumerates {!valid_names}. *)

val valid_names : string list
(** Canonical backend names (["sim-sc:<lag>"] as a pattern), the single
    source for CLI/library error messages and docs. *)

val lag : t -> int option
(** The SC staleness bound, for [Sim_sc] only. *)

val sim_prims : t -> Scs_sim.Sim.t -> (module Prims_intf.S)
(** The backend's primitives over a simulator: {!Sim_prims.make} for
    [Sim_lin], {!Sc_prims.make} for [Sim_sc]. Raises [Invalid_argument]
    for [Native], which has no simulator. *)
