(** Native multicore load harness: a YCSB-style closed-loop macro-bench
    that drives the paper's objects on real OCaml 5 domains.

    Everything else in this repository measures {e steps} under the
    deterministic simulator; this module measures {e wall clock} under
    true hardware parallelism. [N] domains run a closed loop against a
    keyed arena of objects; each iteration draws an operation from a
    {!Mix.t} (read vs update, key by uniform or zipfian skew), applies
    it through a backend-agnostic {!inst} driver, and — during the
    measure phase — records its latency into a per-domain {!Hist.t}.
    Per-domain abort/handoff counters live in per-domain {!Scs_obs.Obs}
    sinks merged at join time, so the hot path never contends on the
    observability layer.

    The composed universal construction and the sharded service are
    not driven here: the repository benchmark ([scsbench], in
    [benchmark/]) measures them natively, types their failures and
    checks every run's history per key. This harness keeps the TAS
    variants, the consensus chain and experiment T15's comparison of
    measured hardware rates with the simulator's estimators.

    {2 Closed loops over bounded objects}

    The paper's objects are one-shot or bounded: a composed TAS decides
    once, a long-lived TAS has a fixed round array, and a consensus
    chain decides once. A closed loop must therefore periodically {e recycle} its arena. Drivers
    request this by setting a flag bit; the engine then runs a
    quiescent barrier: the requesting domain becomes the leader, every
    other active domain parks at the barrier (domains that already
    stopped are excluded), the leader rebuilds or harness-resets the
    arena while provably no operation is in flight — exactly the
    precondition of the [harness_reset]/[harness_recycle] entry points
    — flips a sense flag, and every domain refreshes its per-domain
    handles before resuming. Recycle counts are reported in {!result}
    so a run can be judged on how much of its wall clock went to arena
    churn.

    The driver functor {!Driver} is deliberately parameterised over
    {!Scs_prims.Prims_intf.S}: instantiated with [Native_prims] it is
    the load harness, instantiated with [Sim_prims] the very same
    driver code runs under the simulator ({!sim_selfcheck}), which
    pins the backend seam — algorithm steps go through [P] only, while
    harness bookkeeping (dispensers, epoch budgets) deliberately uses
    raw [Atomic] so it stays invisible to the simulator's step
    accounting. *)

(** The workload families. [Speculative] and [Strict_tas] are arenas of
    long-lived composed TAS objects (paper Algorithm 2, default and
    strict [A1]); [One_shot] and [Solo_fast] are arenas of one-shot
    compositions recycled per epoch; [Hardware] and [Ttas_lock] are the
    baselines (raw hardware TAS win/reset cycles, and a TTAS
    lock-protected counter); [Chain] proposes on a composed consensus
    chain (split > bakery > cas), advancing to a fresh instance as each
    decides. *)
type workload =
  | Speculative
  | Strict_tas
  | Solo_fast
  | One_shot
  | Hardware
  | Ttas_lock
  | Chain

val workload_name : workload -> string
val workload_of_string : string -> workload option
val all_workloads : workload list

val workload_families : (string * workload list) list
(** The acceptance families: composed TAS variants and the consensus
    chain. *)

type cfg = {
  workload : workload;
  domains : int;
  mix : Mix.t;
  rounds : int;  (** long-lived TAS round capacity *)
  epoch_ops : int;  (** per-domain updates between arena recycles *)
  chain_capacity : int;  (** consensus instances per chain arena *)
  warmup_s : float;
  duration_s : float;
  seed : int;
}

val default_cfg : workload:workload -> domains:int -> cfg
(** Mix A (50/50) over 16 keys with zipfian 0.99 skew, 0.2s warmup,
    1s measure, family-appropriate capacities. *)

type result = {
  r_workload : workload;
  r_label : string;  (** e.g. ["native:speculative:r0.50-zipf0.99-k16"] *)
  r_domains : int;
  r_elapsed_s : float;  (** measured wall-clock window *)
  r_ops : int;
  r_reads : int;
  r_updates : int;
  r_ops_per_sec : float;
  r_p50_us : float;
  r_p99_us : float;
  r_p999_us : float;
  r_mean_us : float;
  r_max_us : float;
  r_aborts : int;  (** fast-path aborts (falls to the hardware module / next stage) *)
  r_handoffs : int;  (** switch-value handoffs between composed modules *)
  r_wins : int;
  r_resets : int;  (** winner resets (long-lived rounds, hardware cycles) *)
  r_recycles : int;  (** quiescent arena recycles *)
  r_abort_rate : float;  (** aborts per update *)
}

val run : cfg -> result
(** Spawn [cfg.domains] domains, run warmup then the measured window,
    join, merge per-domain sinks. Works on any host — domains
    time-share when cores are scarce (and the wall-clock numbers then
    measure exactly that). *)

val to_record : result -> Scs_obs.Trajectory.record
(** Native trajectory record: simulator-step fields zeroed,
    [schedules_per_sec] mirroring ops/sec, and the [native] sub-record
    populated (see {!Scs_obs.Trajectory.native}). *)

(** The backend-agnostic driver layer, exposed for the conformance
    tests. [inst] closures return a flag word: bit 0 = win, bit 1 =
    reset performed, bit 2 = recycle requested; bits 8–15 the op's
    abort count; bits 16–23 its handoff count. *)
type inst = {
  i_read : pid:int -> key:int -> int;
  i_update : pid:int -> key:int -> rng:Scs_util.Rng.t -> int;
  i_refresh : pid:int -> unit;
      (** Rebuild per-domain handles after a recycle; called with no op
          in flight (at the barrier, or quiescently in tests). *)
  i_recycle : unit -> unit;
      (** Rebuild/harness-reset the arena; caller must guarantee
          quiescence. *)
}

val f_win : int
val f_reset : int
val f_recycle : int
val flag_aborts : int -> int
val flag_handoffs : int -> int

module Driver (P : Scs_prims.Prims_intf.S) : sig
  val make : cfg -> inst
  (** Build the driver for [cfg.workload] against backend [P]. All
      algorithm steps go through [P]; only harness bookkeeping uses raw
      [Atomic]. *)
end

val sim_selfcheck :
  ?seed:int ->
  ?backend:Scs_prims.Backend.t ->
  n:int ->
  ops_per_proc:int ->
  workload ->
  bool
(** Instantiate {!Driver} with the simulator backend, run [n] process
    fibers of [ops_per_proc] updates each under a deterministic
    sequential policy, exercise a quiescent recycle + refresh, run a
    second epoch, and check the workload's win/abort invariants (e.g.
    at most one winner per one-shot instance per epoch). Proves the
    driver layer is truly backend-agnostic. *)
