(** Deterministic simulator for the asynchronous shared-memory model.

    Each simulated process is an OCaml 5 effect-handler fiber. Every
    shared-memory primitive operation performs an effect carrying an
    {!Op.t}; the scheduler executes the operation atomically, accounts for
    it (steps, RMWs, RAW fences, per-object access census) and resumes the
    fiber until its next operation. A schedule policy chooses which process
    moves at each turn, which gives full, reproducible control over
    interleavings — including solo runs, crash injection, and the
    step-/interval-contention-free execution classes the paper's progress
    claims quantify over.

    Fence accounting follows the paper's reference [7] ("Laws of Order"):
    every RMW counts as one AWAR; a read that follows an earlier write of
    the same process with no intervening RMW counts as one RAW fence. *)

type t
type pid = int

exception Livelock of string
(** Raised by {!run} when the global step budget is exhausted. *)

exception Process_failure of pid * exn
(** An exception escaped a process fiber. *)

val max_processes : int
(** Hard cap on [n] (62): the runnable set is a word-sized bitmask. *)

val create : ?max_steps:int -> ?obs:Scs_obs.Obs.t -> n:int -> unit -> t
(** [create ~n ()] builds a simulator for processes [0 .. n-1]
    ([n <= max_processes]). [max_steps] (default 1_000_000) bounds total
    memory steps to catch livelocks under adversarial schedules. [obs]
    (default {!Scs_obs.Obs.null}) is an observability sink: every executed
    memory step and every injected crash is reported to it, so its
    step clock coincides with {!clock}. A disabled sink costs one
    cached boolean test per step — tracing stays off the hot path. *)

val n : t -> int
val clock : t -> int
(** Total memory steps executed so far (the global logical time). *)

val max_steps : t -> int
(** The step budget passed at {!create}. *)

(** {1 Shared objects}

    Objects must be created before [run]; creating them from inside a
    running fiber is allowed (the allocation itself is a local step). *)

type 'a reg
type tas_obj
type 'a cas_obj
type fai_obj

val reg : t -> ?volatile:bool -> name:string -> 'a -> 'a reg
(** [volatile] (default [false]) opts the register into the
    crash-recovery model's volatile tier: {e any} crash ({!crash} of any
    pid) rewinds its contents to the creation value, modelling state
    that lives in a cache or DRAM rather than persistent memory. The
    default (durable) tier is untouched by crashes — exactly the
    historic fail-stop behaviour. See [docs/recovery.md]. *)

val read : 'a reg -> 'a
val write : 'a reg -> 'a -> unit

val tas_obj : t -> name:string -> unit -> tas_obj
val test_and_set : tas_obj -> bool
(** [true] iff the caller won (the object was 0 and is now 1). One step. *)

val tas_read : tas_obj -> bool
val tas_reset : tas_obj -> unit
(** Writes 0. One (write) step. *)

val cas_obj : t -> name:string -> 'a -> 'a cas_obj
val cas_read : 'a cas_obj -> 'a
val compare_and_swap : 'a cas_obj -> expect:'a -> update:'a -> bool
(** Physical-equality compare, as with [Atomic.compare_and_set]. *)

val fai_obj : t -> name:string -> int -> fai_obj
val fetch_and_inc : fai_obj -> int
val fai_read : fai_obj -> int

type 'a swap_obj

val swap_obj : t -> name:string -> 'a -> 'a swap_obj
val swap : 'a swap_obj -> 'a -> 'a
(** Atomically exchange the value (consensus number 2). One step. *)

val swap_read : 'a swap_obj -> 'a

val pause : t -> unit
(** A deliberate stall: consumes one scheduler turn (modelled as a read of a
    per-simulator dummy object) so that spinning processes cannot starve the
    livelock fuse. *)

(** {1 Custom backend objects}

    Entry points for primitive backends implemented outside this module
    (e.g. the sequentially-consistent register backend
    [Scs_prims.Sc_prims]): allocate an object id in the simulator's
    census, and perform scheduled memory operations against it. Custom
    operations flow through the ordinary effect pipeline, so accounting,
    tracing, observability, footprints and partial-order reduction see
    them exactly like built-in objects.

    Soundness contract for {!footprints_commute}: a custom operation's
    [run] closure must touch only state owned by object [obj] (plus
    state private to the running process), and two [Read]-kind
    operations on the same object by different processes must commute. *)

val custom_obj : t -> ?rmw:bool -> ?wipe:(unit -> unit) -> unit -> int
(** Allocate a fresh object id. [rmw] (default false) counts the object
    in the consensus-power census ({!rmw_objects_allocated}). [wipe], if
    given, marks the object volatile: the thunk is run by every
    {!crash}, and must rewind the backing state to whatever the model
    says a power loss leaves behind (usually the creation value). *)

val custom_op : obj:int -> obj_name:string -> kind:Op.kind -> info:string -> (unit -> 'r) -> 'r
(** Perform one scheduled memory operation: blocks the calling fiber
    until the scheduler grants it a turn, then executes the closure
    atomically and resumes with its result. Must be called from inside a
    spawned process. *)

val running_pid : t -> pid
(** The pid on whose behalf the current turn executes. Only meaningful
    from code running inside {!step} — in particular from a {!custom_op}
    closure; raises [Invalid_argument] between turns. *)

(** {1 Processes and scheduling} *)

val spawn : t -> pid -> (unit -> unit) -> unit
(** Install the code of process [pid]. A process may be spawned at most once
    per simulator, or since its last {!clear}. *)

val runnable : t -> pid list
(** Pids that can take a step now (spawned, not finished, not crashed). *)

val runnable_bits : t -> int
(** The runnable set as a bitmask (bit [pid] set iff [pid] is runnable).
    O(1), no allocation — the hot-path view of {!runnable}. *)

val runnable_count : t -> int
(** Number of runnable processes. O(popcount), no allocation. *)

val nth_runnable : t -> int -> pid
(** [nth_runnable t k] is the [k]-th runnable pid in ascending order,
    i.e. [List.nth (runnable t) k] without building the list. The caller
    must ensure [0 <= k < runnable_count t]. *)

val is_runnable : t -> pid -> bool
val finished : t -> pid -> bool

val is_crashed : t -> pid -> bool
(** Currently crashed (terminally, or awaiting re-admission). *)

val all_done : t -> bool

(** {1 Step footprints}

    The shared-memory footprint of the next scheduler turn of a process, used
    by {!Explore} for conflict-based partial-order reduction. A process
    blocked on a memory operation will execute exactly that operation on its
    next turn; a freshly spawned ([Ready]) process only advances through
    process-local code to its first operation, which touches no shared
    object. *)

type footprint =
  | Local  (** next turn performs no shared-memory operation *)
  | Access of int * Op.kind  (** next turn executes [kind] on object [id] *)

val footprint : t -> pid -> footprint
(** Footprint of [pid]'s next turn ([Local] for non-runnable processes). *)

val footprints_commute : footprint -> footprint -> bool
(** Two adjacent turns by different processes commute (executing them in
    either order yields the same state) unless both access the same object
    and at least one access is a write or an RMW. [Local] turns commute with
    everything. *)

val footprint_code : t -> pid -> int
(** {!footprint} packed into an int ([-1] for [Local], otherwise
    [obj * 4 + kind]) so conflict checks allocate nothing. *)

val codes_commute : int -> int -> bool
(** {!footprints_commute} on packed codes. *)

val step : t -> pid -> unit
(** Let [pid] take one scheduler turn: execute its pending memory operation
    (if any) and run it up to its next operation or completion. The first
    turn of a fresh process only advances it to its first operation. *)

val crash : ?recover_after:int -> t -> pid -> unit
(** Crash [pid] now ({!run}'s [?crashes] fires this at planned points):
    its current fiber is abandoned and every volatile
    object is wiped to its creation value. Without [recover_after] (or
    when no recovery entry point is installed for [pid]) the crash is
    terminal — the process takes no further steps, the historic
    fail-stop model. With [recover_after:d] and a {!set_recovery} entry
    point, the process is re-admitted once the global clock has
    advanced [d] further memory steps: its recovery code starts on a
    fresh fiber (the abandoned continuation is never resumed). Crashing
    a process that is [Idle], finished or already crashed is a no-op
    (in particular, a crashed-awaiting-recovery process cannot be
    crashed again until it has been re-admitted). *)

val set_recovery : t -> pid -> (unit -> unit) -> unit
(** Install the recovery entry point of [pid], enabling crash-recovery
    for it. The code must be {e idempotent} in the algorithm's sense: it
    can run after a crash at any point of the process's execution,
    including part-way through a previous recovery. Installing again
    replaces the previous entry point; {!clear} forgets entry points
    along with spawn code. *)

val has_recovery : t -> pid -> bool

val pending_recoveries : t -> int
(** Number of crashed processes currently awaiting re-admission. *)

val admit_stalled_recovery : t -> bool
(** If no process is runnable but recoveries are pending, re-admit the
    earliest-due one (ties towards the smallest pid) immediately,
    without advancing the clock — the delay cannot elapse once nothing
    can advance the clock, so waiting it out is meaningless. Returns
    [true] iff a process was admitted. {!run} calls this itself;
    external drivers with their own scheduling loops must call it
    wherever they test {!all_done}. *)

val run : ?capture:pid Scs_util.Vec.t -> ?crashes:Crash.t list -> t -> (t -> int) -> unit
(** [run sim policy] drives the simulation until no process is runnable
    (after admitting stalled recoveries), the policy answers a negative
    int, or the step budget trips ({!Livelock}). At each turn the
    policy returns the runnable pid to move next (see {!Policy}), or a
    negative int to stop; it is not consulted once nothing is runnable.

    [crashes] (default none) are injected at the turn boundaries: before
    each policy call, every due event fires ({!Crash.fire}, ascending pid
    order, at most one per pid per turn). An event is due once its
    victim has taken [at] memory steps and is not crashed; a recovering
    event re-admits the victim's {!set_recovery} code after its delay,
    and a victim's next event waits until it has been re-admitted. A
    crash can leave nothing runnable; the policy is still consulted on
    that turn.

    [capture], if given, receives every scheduled pid in turn order. The
    captured schedule replayed with [Policy.scripted ~strict:true] under
    the same [crashes] reproduces the run exactly. *)

(** {1 Rewinding}

    A simulator's arenas (status/counter arrays, trace buffer) are
    reusable across runs: a batch driver rewinds one simulator with
    {!clear} and runs its workload [setup] again, instead of allocating
    a simulator per run. *)

val clear : t -> unit
(** Rewind to the post-[create] state: no processes spawned, no objects,
    no recovery entry points, counters zeroed — but every arena keeps
    its capacity, so a subsequent [setup]+run allocates almost nothing.
    Safe after any outcome, including {!Livelock} and {!Process_failure}
    (abandoned continuations are garbage-collected). The obs sink is not
    touched: it keeps accumulating across runs, as when driving fresh
    simulators. *)

(** {1 Accounting} *)

val steps_of : t -> pid -> int
val total_steps : t -> int
val rmws_of : t -> pid -> int
val raw_fences_of : t -> pid -> int
val total_rmws : t -> int
val objects_allocated : t -> int
(** Number of base objects (registers + RMW objects) created so far: the
    space-complexity census. *)

val rmw_objects_allocated : t -> int
(** Number of RMW-capable base objects created: consensus-power census. *)

val recoveries_of : t -> pid -> int
val total_recoveries : t -> int
(** Re-admissions after a crash, this run (zeroed by {!clear}). *)

val volatile_objects_allocated : t -> int
(** Number of objects in the volatile tier (wiped by every crash). *)

(** {1 Tracing} *)

val obs : t -> Scs_obs.Obs.t
(** The observability sink passed at {!create} ({!Scs_obs.Obs.null} if
    none was). *)

val set_trace : t -> bool -> unit
val trace : t -> Mem_event.t list
val trace_arr : t -> Mem_event.t array
