(** The composable universal construction (Section 4.2).

    Herlihy's universal construction with wait-free consensus replaced by
    abortable consensus. Shared state: a vector [Cons] of abortable
    consensus instances deciding one request per slot, a [Reqs] snapshot of
    per-process announcements (for helping), an [Aborted] flag, and
    per-process committed-slot counters [C] (the paper's atomic counter,
    realised as a max-register of single-writer slots so that it stays at
    consensus number 1).

    Discipline making the Abstract properties hold:
    - a process appends slot [k]'s decision to its local log, writes
      [C_i := k+1], and only then, {e before returning a commit}, re-reads
      [Aborted]; by the flag principle, an aborter that set [Aborted] and
      then reads [max_j C_j] obtains a count covering every returned
      commit;
    - recovery probes slots [0 .. count-1] — all decided — with ⊥
      proposals, reconstructing the decided prefix irrespective of local
      commit/abort outcomes (the paper's abort-history computation).

    Instances are initialised with a history (the previous instance's
    abort history): slot [k < |h_init|] is proposed [h_init(k)] as the
    inherited value, which is exactly the [init] phase of the Appendix A
    wrappers. Decisions are deduplicated positionally, so divergent init
    tails across processes collapse to one canonical log. *)

open Scs_spec

type 'i abstract_outcome =
  | Committed
      (** the request is in the handle's local log, the commit history
          [h] ({!Make.performed}); the response is [β(h, m)] *)
  | Aborted_with of 'i History.t  (** the abort history *)

module Make (P : Scs_prims.Prims_intf.S) : sig
  type 'i t
  type 'i handle

  val create :
    name:string ->
    n:int ->
    max_requests:int ->
    cons:(slot:int -> 'i Request.t Scs_consensus.Consensus_intf.t) ->
    unit ->
    'i t
  (** One consensus instance per slot [0 .. max_requests-1], found
      through the lookup [cons] (e.g. all SplitConsensus, all
      AbortableBakery, or all CAS for the wait-free closing stage).
      [cons ~slot] is called on every proposal to and every recovery
      probe of the slot, and takes no simulated step itself. Contract:
      it returns the same instance for a slot for the whole life of the
      construction, so whoever builds a slot's instance, up front or on
      first lookup, must publish exactly one. *)

  val handle : 'i t -> pid:int -> init:'i History.t -> 'i handle
  (** A process's view of the instance. [init] is the history inherited
      from the previous instance's abort ([[]] for the first). *)

  val invoke : 'i handle -> 'i Request.t -> 'i abstract_outcome
  (** Run the construction for one request until it commits or the
      instance aborts. After an abort the handle is dead: further invokes
      return aborts with the same history.

      Right after announcing, [invoke] reads the count [max_j C_j] ([n]
      register reads). Every slot below it is already decided, so there
      the handle proposes its own request instead of running the
      helping choice (a [Reqs] scan): consensus returns the slot's
      decision whatever is proposed. The count is a local of the
      invocation, re-read from the durable [C] registers by the next.

      Alone ([n = 1]) there is nobody to help: [invoke] neither
      announces nor reads the count, and proposes its own request at
      every slot. The helping choice would return that request anyway,
      since every earlier invoke on the handle committed or killed it.
      Each slot still reads [Aborted] and writes [C[0]], so recovery is
      unchanged (it never reads [Reqs]). *)

  val performed : 'i handle -> 'i History.t
  (** The handle's local log of decided requests, oldest first: the
      commit history as a list, built in O(h) on each call. *)

  val log_length : 'i handle -> int
  (** Length of the local log. It only grows: a commit appends the
      slots it walked and never rewrites an entry. *)

  val log_get : 'i handle -> int -> 'i Request.t
  (** [log_get h i] is entry [i] of the local log, in O(1). Raises
      [Invalid_argument] unless [0 <= i < log_length h]. *)
end
