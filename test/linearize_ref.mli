(** The seed bitmask linearizability checker, kept as a differential
    oracle.

    This is the pre-rewrite Wing & Gong search over a word-sized [int]
    bitmask with a linear-scan state memo, verbatim. It exists only so
    that the scalable {!Scs_history.Linearize} can be cross-validated
    against it (test_linearize_diff.ml, 10k+ random traces). It is
    hard-capped at {!max_operations} = 62 operations and slower on
    everything nontrivial. *)

open Scs_spec
open Scs_history

val max_operations : int
(** 62 — the linearized set is a word-sized bitmask. *)

exception Capacity_exceeded of int
(** Raised (with the offending operation count) past {!max_operations}. *)

val check_operations : ('q, 'i, 'r) Spec.t -> ('i, 'r, 'v) Trace.operation list -> bool
(** Raises {!Capacity_exceeded} beyond {!max_operations} operations. *)

val check_events : ('q, 'i, 'r) Spec.t -> ('i, 'r, 'v) Trace.event array -> bool
(** [check_operations] composed with {!Trace.operations}. *)
