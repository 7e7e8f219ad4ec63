(** Generic linearizability checking (Wing & Gong / Herlihy & Wing),
    scalable edition.

    Given a sequential specification and a real-time trace of operations,
    decide whether the committed responses can be explained by some
    sequential execution that respects real-time precedence. Pending
    operations (invoked, never responded — e.g. crashed processes) may be
    linearized with any response or dropped; aborted operations are treated
    as pending, because an aborted operation of a safely composable module
    may or may not have taken effect (Section 5).

    The engine is a depth-first search over the set of already-linearized
    operations with three structural accelerators over the seed
    implementation (kept in the test suite as a differential oracle):

    - the linearized set is a growable {!Scs_util.Bitset} instead of a
      word-sized [int] bitmask, so there is no operation cap;
    - candidates are tried minimal-response-first (Lowe's just-in-time
      linearization): completed operations are sorted by response time, so
      the most constrained operation is linearized eagerly, the earliest
      outstanding response is found in O(1), and the pending-candidate
      scan stops at the first not-yet-invocable one;
    - visited [(linearized set, object state)] pairs are memoized in a
      table hashed on both components ({!Bitset.hash} combined with
      [Spec.hash_state]) with exact-equality buckets, replacing the seed's
      per-mask linear scan over states.

    {2 Memo soundness invariant}

    Memoizing on [(linearized set, state)] is sound because the spec is
    deterministic: that pair fully determines the remaining search. It
    additionally requires [Spec.equal_state] to be a congruence — equal
    states must have identical future behaviour under [apply]. A coarser
    equality (conflating observationally distinct states) makes the memo
    return [false] for a state whose twin was refuted, producing false
    negatives; test/test_history.ml pins a concrete instance. Hash
    quality, by contrast, is only a performance concern: membership is
    always decided by exact [Bitset.equal] + [equal_state], so a colliding
    (even constant) [hash_state] cannot change verdicts.

    The search remains exponential in the worst case; the memo and the
    response-order heuristic make realistic traces (hundreds to thousands
    of operations of bounded concurrency) check in near-linear time
    (EXPERIMENTS.md T12). *)

open Scs_spec

exception Search_budget_exceeded of int
(** Raised (with the exhausted budget) when a [?budget]-bounded check
    visits more search nodes than allowed. The search is exponential in
    the {e concurrency width} of the history — the number of overlapping
    operations — not its length; a budget lets batch callers (fuzzing,
    CI) give up on adversarially wide histories instead of hanging.
    Exceeding the budget carries no verdict: the history may or may not
    be linearizable. *)

val check_operations :
  ?budget:int -> ('q, 'i, 'r) Spec.t -> ('i, 'r, 'v) Trace.operation list -> bool
(** [budget], if given, bounds the number of search nodes (see
    {!Search_budget_exceeded}). *)

val check_events :
  ?budget:int ->
  ('q, 'i, 'r) Spec.t ->
  ('i, 'r, 'v) Trace.event array ->
  bool
(** [check_operations] composed with {!Trace.operations}. *)

(** {2 Sequential consistency}

    Sequential consistency (Lamport) keeps linearizability's two other
    ingredients — a single total order explaining all responses against
    the sequential spec, with each process's own operations in program
    order — but drops the real-time constraint: an operation may take
    effect before an operation that finished earlier on another process.
    Every linearizable history is therefore SC, not conversely (a stale
    read after a remote completed write is SC but not linearizable), and
    unlike linearizability SC is {e not} compositional: per-object SC
    subhistories need not interleave into one SC history over the whole
    memory (Perrin et al., the store-buffering shape being the minimal
    witness — test/test_sc.ml pins it). The checkers below decide {e
    membership} for one history against one spec; they deliberately come
    without a [check_partitioned] analogue, because splitting by object
    is unsound for SC. *)

val check_sc_operations :
  ?budget:int ->
  ('q, 'i, 'r) Spec.t ->
  ('i, 'r, 'v) Trace.operation list ->
  bool
(** [check_sc_operations spec ops] — is the history sequentially
    consistent w.r.t. [spec]? Committed operations must reproduce their
    responses; pending/aborted operations may take effect or be dropped,
    as in {!check_operations}. The search merges the per-process
    program-order sequences under the same bitset-memoized DFS engine
    (memo key: consumed set × spec state, sound because the consumed
    set is prefix-closed per process); [budget] behaves as in
    {!check_operations}. Requires a well-formed history: each process's
    operations must be sequential (overlapping same-pid operations are
    ordered by invocation time, an arbitrary strengthening).

    One deliberate asymmetry with {!check_operations}: a pending or
    aborted operation's effect, if it takes one, is pinned to its
    program-order slot here, whereas the linearizability checker — which
    orders by real time only — lets an unresponded operation float past
    {e later operations of the same process}. A process that continues
    after an abort can therefore be linearizable yet not SC under these
    definitions; on histories whose pending/aborted operations are
    process-final (crashed processes, the common case), linearizability
    implies SC, and test/test_linearize_diff.ml checks the implication
    property on exactly that class. *)

(** {2 Compositional checking}

    Linearizability is compositional (Herlihy & Wing; constructive proof
    in Lin, arXiv:1412.8324): a history over multiple objects is
    linearizable iff each per-object subhistory is linearizable against
    its own specification. {!check_partitioned} exploits this: it splits a
    trace by an object key and checks each subhistory independently —
    turning one search over [n] operations into many searches over small
    fragments, which is exponentially cheaper in the worst case and
    embarrassingly parallel.

    Splitting is sound exactly when the partitions are genuinely
    independent objects:

    - [key] must be a function of the operation alone (each operation
      touches exactly one object) and must name the {e true} object even
      for [Pending] operations: a pending op may still have taken effect,
      and misplacing it in another partition can strand operations whose
      responses it explains — a false violation (pinned by the partition-
      key hazard test in test/test_history.ml, found live by the fuzzer's
      crash-injecting long-lived TAS workload); and
    - the correctness criterion must be the {e product} of the per-object
      specifications — no cross-object constraint may relate the
      partitions' states (a product spec factors; a spec like "resettable
      TAS where reset also clears a side register in another partition"
      does not).

    Under those conditions [check_partitioned] agrees with a monolithic
    {!check_operations} against the product specification
    (test/test_linearize_diff.ml verifies the equivalence on random
    two-register traces). Real-time order {e between} objects needs no
    check: per-object linearizations always interleave into a global one
    (the compositionality theorem). *)

val check_partitioned :
  ?budget:int ->
  key:(('i, 'r, 'v) Trace.operation -> int) ->
  spec:(int -> ('q, 'i, 'r) Spec.t) ->
  ('i, 'r, 'v) Trace.operation list ->
  bool
(** [check_partitioned ~key ~spec ops] partitions [ops] by [key] and
    checks each partition [k] against [spec k], cheapest (fewest
    operations) first, failing fast on the first non-linearizable
    partition. [budget] applies to each partition separately. *)
