(** Uniform interface to abortable consensus instances.

    An abortable consensus instance returns a commit or abort indication
    together with a decision value (Section 4.2). [⊥] is represented as
    [None]:
    - [Commit (Some d)] — the instance decided [d];
    - [Commit None] — the caller proposed [⊥] on an undecided instance (a
      probe, or initialisation with no inherited value), deciding nothing;
    - [Abort w] — contention: [w] is the instance's current tentative value
      ([None] when it has none).

    [run] is the paper's wrapper (the [SplitConsensus]/[AbortableBakery]
    procedures of Appendix A): first propose the inherited value [old];
    on abort return [Abort old]; on [Commit None] propose the real value.

    Agreement: all [Commit (Some _)] outcomes of one instance carry the
    same value.

    The two Appendix A implementations trade solo cost against the
    contention class that can force an abort — the trade-off T13 and
    [scs stats] measure with the {!Scs_obs.Obs} sink:

    - [SplitConsensus]: O(1) steps solo, but may abort under {e interval
      contention} (a concurrent operation merely pending);
    - [AbortableBakery]: Θ(n) steps solo, aborts only under {e step
      contention} (another process actually taking steps inside the
      interval).

    Both progress guarantees are {e run-level}, not per-operation: each
    implementation latches contention in shared state ([C], [Quit]), so
    one contended interval can abort later, individually-uncontended
    operations. The checkable invariant is "a run whose measured maximal
    interval contention is 0 has no aborts" (asserted by T13). *)

open Scs_composable

type 'v t = {
  name : string;
      (** the algorithm's kind: ["split"], ["bakery"], ["cas"],
          ["recoverable-split"], ["recoverable-bakery"] or ["chain"]. Not
          an instance name: every slot of a kind shares one string, and the
          instance's shared objects carry their own names. *)
  propose_raw : pid:int -> 'v option -> ('v option, 'v option) Outcome.t;
      (** the bare [propose] procedure *)
  run : pid:int -> old:'v option -> 'v -> ('v option, 'v option) Outcome.t;
      (** the [init]+[propose] wrapper *)
}

val wrap :
  name:string -> (pid:int -> 'v option -> ('v option, 'v option) Outcome.t) -> 'v t
(** Build the standard wrapper around a bare [propose]. *)

val probe : 'v t -> pid:int -> 'v option
(** Best-known decision value: propose [⊥] and take the returned value,
    whether committed or aborted (Section 4.2's recovery read). *)
