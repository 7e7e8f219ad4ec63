(** High-level operation traces.

    A trace is the real-time sequence of invocation, init, commit and abort
    events observed at the boundary of an implementation (Section 3 of the
    paper). Events carry two notions of time:
    - their position in the trace ([seq], assigned by the recorder), which
      defines the real-time precedence order used by the linearizability
      and Abstract checkers, and
    - the simulator's memory-step clock ([ts]), used by the contention
      detectors.

    ['v] is the type of switch values — the information an aborted
    operation hands to whatever replaces it, the central currency of the
    paper's composition theorems (Theorems 1–2): [Abort] events carry
    the switch value out, [Init] events carry one in.

    Costs: recording is O(1) amortised per event ({!Scs_util.Vec} push);
    {!operations} is a single O(events) pass with a hashtable keyed by
    request id. The trace is the input to every checker in this library
    (linearizability, abstractness, composition laws); for step-level
    accounting use {!Scs_sim.Mem_event} / {!Scs_obs.Obs} instead —
    this trace deliberately records only the operation boundary. *)

open Scs_spec

type ('i, 'r, 'v) event =
  | Invoke of { seq : int; ts : int; pid : int; req : 'i Request.t }
  | Init of { seq : int; ts : int; pid : int; req : 'i Request.t; switch : 'v }
      (** an invocation carrying a switch value for module initialisation *)
  | Commit of { seq : int; ts : int; pid : int; req : 'i Request.t; resp : 'r }
  | Abort of { seq : int; ts : int; pid : int; req : 'i Request.t; switch : 'v }
  | Recover of { seq : int; ts : int; pid : int; req : 'i Request.t }
      (** the process crashed while the request was in flight and its
          recovery code re-entered the operation: a {e re-invocation} of
          the same request, not a fresh operation — see {!operations} *)

(** {1 Recording} *)

type ('i, 'r, 'v) t

val create : ?clock:(unit -> int) -> unit -> ('i, 'r, 'v) t
(** [clock] supplies the logical timestamp of each event (default: the
    event's own sequence number). *)

val invoke : ('i, 'r, 'v) t -> pid:int -> 'i Request.t -> unit
(** Record the start of an operation. O(1) amortised. *)

val init : ('i, 'r, 'v) t -> pid:int -> 'i Request.t -> 'v -> unit
(** Like {!invoke}, but the operation inherits [switch] from a
    predecessor's abort (the paper's [init(w)] entry point). *)

val commit : ('i, 'r, 'v) t -> pid:int -> 'i Request.t -> 'r -> unit
(** Record a committed response. *)

val abort : ('i, 'r, 'v) t -> pid:int -> 'i Request.t -> 'v -> unit
(** Record an aborted response carrying its switch value. *)

val recover : ('i, 'r, 'v) t -> pid:int -> 'i Request.t -> unit
(** Record a crash-recovery re-entry into a pending request. Must fall
    strictly between the request's invocation and its response —
    {!operations} rejects anything else. *)

val events : ('i, 'r, 'v) t -> ('i, 'r, 'v) event array
(** Snapshot of the recorded events in [seq] order. O(events). *)

val length : ('i, 'r, 'v) t -> int

(** {1 Derived operation view} *)

type ('i, 'r, 'v) operation = {
  op_pid : int;
  op_req : 'i Request.t;
  invoke_seq : int;
  invoke_ts : int;
  op_init : 'v option;  (** switch value if invoked via [init] *)
  op_recoveries : int;
      (** number of [Recover] re-invocations folded into this operation
          (0 for a crash-free operation) *)
  outcome : ('i, 'r, 'v) outcome;
}

and ('i, 'r, 'v) outcome =
  | Committed of { resp : 'r; resp_seq : int; resp_ts : int }
  | Aborted of { switch : 'v; resp_seq : int; resp_ts : int }
  | Pending  (** invoked, never responded (e.g. crashed) *)

val operations : ('i, 'r, 'v) event array -> ('i, 'r, 'v) operation list
(** Pair invocations with their responses (matched by request id). A
    [Recover] event is folded into its request's single operation as a
    re-invocation: the operation keeps its original [invoke_seq] (it was
    in flight across the crash, so its real-time interval spans original
    invocation to final response — the checkers need no special case)
    and [op_recoveries] counts the re-entries. Raises [Invalid_argument]
    on malformed traces (response without invocation, duplicate
    invocation of one request id, recovery of an uninvoked or
    already-responded request, ...). *)

val committed : ('i, 'r, 'v) operation list -> ('i, 'r, 'v) operation list
val aborted : ('i, 'r, 'v) operation list -> ('i, 'r, 'v) operation list
val pending : ('i, 'r, 'v) operation list -> ('i, 'r, 'v) operation list
