(** Sequentially-consistent register backend over the simulator.

    Implements {!Prims_intf.S} like {!Sim_prims}, except that plain
    registers are only {e per-object sequentially consistent} instead of
    atomic: a read may return a stale value, bounded by [lag] — it never
    lags more than [lag] writes behind the register's write log — and
    subject to per-process monotonicity (a process never observes a
    register travel backwards, and always observes its own writes). This
    is a deterministic delayed-visibility model in the spirit of
    per-process reordering implementations of sequential consistency
    (Ekström & Haridi's SC-ABD; Perrin et al.): every single register's
    history is SC by construction, but there is {e no ordering between
    different registers}, so the register memory as a whole is not SC —
    store-buffering outcomes are reachable from [lag >= 1]. RMW objects
    (TAS, CAS, FAI, swap) remain atomic, matching SC-ABD's treatment of
    consensus primitives.

    Staleness is deterministic: a read serves the {e most} stale value
    the lag bound and monotonicity allow. Nondeterminism therefore comes
    from the schedule alone — recorded schedules replay bit-for-bit and
    shrink soundly, and [lag = 0] is observationally identical to
    {!Sim_prims} (reads always serve the newest write; same object ids,
    step kinds and footprints, hence identical scheduling and verdicts).

    Registers integrate with the simulator via {!Scs_sim.Sim.custom_obj}
    /{!Scs_sim.Sim.custom_op}: operations are accounted, traced and
    footprinted like built-in ones, and a crash wipes a volatile
    register's log and views. The partial-order-reduction contract holds:
    a read touches only the register's own log and the reading process's
    own cursor, so two reads of the same register commute. *)

val default_lag : int
(** 1 — the smallest lag that separates SC from atomic behaviour. *)

val make : ?lag:int -> Scs_sim.Sim.t -> (module Prims_intf.S)
(** [make ~lag sim] builds the backend for [sim]. [lag] (default
    {!default_lag}) bounds how many writes behind the log head a read
    may serve; [lag = 0] is the atomic semantics. Raises
    [Invalid_argument] on negative [lag]. *)
