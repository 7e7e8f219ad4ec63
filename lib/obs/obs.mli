(** Observability sink: per-process/per-object counters, online
    contention estimators, and a bounded structured event trace.

    The paper's headline claims are quantitative — A1 commits in O(1)
    steps and space (Theorem 3), AbortableBakery takes O(n) steps and
    aborts only under {e step contention}, SplitConsensus aborts only
    under {e interval contention} (Appendix A). This module is how the
    repo measures those quantities instead of merely proving them: the
    simulator reports every executed shared-memory step to a sink, and
    algorithm drivers bracket each high-level operation with
    {!op_begin}/{!op_end} so the sink can attribute steps and compute
    contention per operation.

    {2 Contention definitions (paper §2 / Appendix A)}

    For a completed high-level operation [op] by process [p]:

    - {b step contention} of [op] is the number of shared-memory steps
      taken by processes other than [p] inside [op]'s execution
      interval. Estimated online in O(1) per operation from two
      snapshots of the global and per-process step counters (begin and
      end) — exactly the count a post-hoc scan of the
      {!Scs_sim.Mem_event} stream would produce ({!Scs_sim.Detect} is
      the reference implementation; the unit tests cross-check them).
    - {b interval contention} of [op] is the number of {e distinct
      other processes} whose own bracketed operations overlap [op]'s
      interval. Maintained online with a per-open-operation overlap
      bitmask (one bit per process — hence the sink's 62-process cap):
      O(n) work at each {!op_begin}, a popcount at {!op_end}, zero on
      the step hot path.

    Solo executions therefore measure 0 for both, and step contention
    always bounds interval contention from above per the paper.

    {2 Cost contract}

    The sink is designed so that a {e disabled} sink ({!null}) costs
    one branch per simulated step: {!Scs_sim.Sim} guards the call with
    {!enabled}, and every hook on a disabled sink returns immediately.
    An {e enabled} sink costs O(1) per step (counter bumps plus a
    ring-buffer write, no allocation beyond the event record) and O(n)
    per operation bracket. The structured trace is a bounded ring —
    memory is O(capacity), never O(run length). *)

type kind =
  | Read
  | Write
  | Rmw  (** atomic read-modify-write: TAS, CAS, fetch&inc, swap *)

(** One entry of the structured ring trace. [ts] is the sink's step
    clock: the number of shared-memory steps reported so far, which
    coincides with [Sim.clock] when the sink is attached at simulator
    creation. *)
type event =
  | Step of { ts : int; pid : int; kind : kind; obj : int; obj_name : string; info : string }
  | Op_begin of { ts : int; pid : int; obj : int; label : string }
  | Op_end of { ts : int; pid : int; obj : int; aborted : bool }
  | Handoff of { ts : int; pid : int; label : string }
      (** a switch value crossing an abort boundary (A1 → backup, or a
          stage hand-off in a consensus chain) *)
  | Crash of { ts : int; pid : int }
  | Recover of { ts : int; pid : int }
      (** a crashed process re-admitted via its recovery entry point
          ({!Scs_sim.Sim.set_recovery}) *)
  | Note of { ts : int; text : string }

(** Everything the sink learned about one completed bracketed
    operation. *)
type op_metric = {
  om_pid : int;
  om_obj : int;  (** object id passed to {!op_begin} (algorithm-level, e.g. one id per consensus instance) *)
  om_label : string;
  om_start : int;  (** step clock at {!op_begin} *)
  om_finish : int;  (** step clock at {!op_end} *)
  om_steps : int;  (** shared-memory steps by [om_pid] inside the interval *)
  om_step_contention : int;
      (** steps by {e other} processes inside the interval (paper §2) *)
  om_interval_contention : int;
      (** distinct other processes with an overlapping bracketed
          operation (paper Appendix A) *)
  om_aborted : bool;
}

type t

val create : ?ring_capacity:int -> ?record_ring:bool -> n:int -> unit -> t
(** An enabled sink for processes [0..n-1]. [ring_capacity] (default
    [4096]) bounds the structured trace; older events are evicted.
    [record_ring] (default [true]) controls whether events are written
    to the ring at all: batch-measurement engines pass [false] for
    sinks whose ring nobody replays, which drops two string stores (and
    their write barriers) per simulated step from the hot path. The
    counters, census, op metrics and crash list are unaffected —
    {!events} just returns []. *)

val null : t
(** The no-op sink: {!enabled} is [false] and every hook returns
    immediately. This is the default everywhere a [?obs] parameter
    exists, keeping instrumentation off the hot path. *)

val enabled : t -> bool

val ring_capacity : t -> int
(** The bound passed at {!create} (1 for {!null}). *)

(** {2 Hooks} — called by the simulator and by algorithm drivers.
    All are no-ops on {!null}. *)

val step : t -> pid:int -> kind:kind -> obj:int -> obj_name:string -> info:string -> unit
(** One executed shared-memory step. Called by {!Scs_sim.Sim} from its
    accounting path; advances the sink's step clock. O(1). *)

val op_begin : t -> pid:int -> obj:int -> label:string -> unit
(** Open a high-level operation bracket for [pid]. At most one bracket
    per process may be open; a second [op_begin] implicitly closes the
    first (recorded as non-aborted). O(n): overlap bookkeeping against
    every other open bracket. *)

val op_end : t -> pid:int -> aborted:bool -> unit
(** Close [pid]'s open bracket, producing an {!op_metric}. No-op if no
    bracket is open. *)

val abort : t -> pid:int -> unit
(** Count one abort for [pid] (independent of brackets, so drivers can
    report aborts of inner layers too). *)

val handoff : t -> pid:int -> label:string -> unit
(** Count one switch-value handoff — the composition cost the paper
    charges when an aborted operation's partial effect is carried into
    the backup object. *)

val crash : t -> pid:int -> unit
(** Record a crash injected by a policy. Closes any open bracket as
    aborted. *)

val recover : t -> pid:int -> unit
(** Record the re-admission of a crashed process (called by the
    simulator when recovery code is scheduled). Opens no bracket — the
    recovery code brackets its own operations if it wants metrics. *)

val note : t -> string -> unit
(** Free-form marker in the structured trace. *)

(** {2 Queries} *)

val n : t -> int
val clock : t -> int
(** Steps reported so far (= [Sim.clock] when attached at creation). *)

val total_steps : t -> int
val steps_of : t -> int -> int
val rmws_of : t -> int -> int

val cas_attempts_of : t -> int -> int
(** RMW steps whose [info] starts with ["cas"] — the compare-and-swap
    attempts counter of the bench schema. *)

val aborts_of : t -> int -> int
val total_aborts : t -> int
val handoffs_of : t -> int -> int
val total_handoffs : t -> int
val crashes : t -> int list
(** Pids recorded as crashed, in crash order. *)

val recoveries : t -> int list
(** Pids recorded as recovered (re-admitted after a crash), in recovery
    order. *)

val objects : t -> (string * int * int) list
(** Per-object step census: [(name, steps, rmws)] sorted by steps,
    descending, ties by name. Objects are counted by name: an object
    allocated mid-run may get a simulator id that a differently named
    object had in an earlier run, and each keeps its own steps;
    same-named objects share one row. Space is O(distinct objects). *)

val op_metrics : t -> op_metric list
(** Completed operation brackets, in completion order. *)

val max_step_contention : t -> int
val max_interval_contention : t -> int
(** Running maxima over completed brackets — O(1), usable mid-run. *)

val events : t -> event list
(** Ring contents, oldest first. At most [ring_capacity] entries. *)

(** {2 Merging} *)

val merge_into : into:t -> t -> unit
(** Fold one sink into another — the join step when each domain of a
    parallel explore/fuzz ran against its own private sink. Counters,
    per-object census and contention maxima are summed/maxed; op
    metrics are appended in the source's completion order; the census
    is merged by object name, as {!objects} reads it; crashes are
    appended after the destination's; the source's ring is replayed
    into the destination oldest-first (destination eviction applies).
    Merging the per-domain sinks in a fixed (worker-index) order makes
    the combined sink deterministic for a deterministic work split.
    Open (un-ended) brackets of the source are dropped. The source is
    not modified. A disabled source is a no-op; raises
    [Invalid_argument] if the destination is disabled or sized for
    fewer processes than the source. *)
