(** Generic objects built from composed universal-construction instances
    (Proposition 1): speculate on cheap abortable stages, fall back to a
    wait-free (CAS-based) stage, transferring the full request history on
    every switch.

    Each process holds a {!phandle} tracking its current stage; on abort
    it opens a handle on the next stage initialised with its abort history
    and re-runs its request there. With a wait-free final stage the
    composition never aborts, and by the Abstract composition theorem
    (Theorem 1) the whole chain is one Abstract — hence linearizable.

    {!Typed} interprets committed histories under a sequential
    specification to produce actual responses — the universal-construction
    TAS/queue/fetch&inc objects used as baselines in experiments T5/T6. *)

open Scs_spec

module Make (P : Scs_prims.Prims_intf.S) : sig
  module U : module type of Universal.Make (P)

  type 'i t

  val create :
    name:string ->
    n:int ->
    max_requests:int ->
    stages:(name:string -> slot:int -> 'i Request.t Scs_consensus.Consensus_intf.t) list ->
    unit ->
    'i t
  (** One universal-construction instance per stage; [stages] gives each
      instance's consensus factory (e.g. SplitConsensus, then Bakery, then
      CAS). Only stage 0 is built here. Stage [i >= 1] is built when the
      first process switches into it, so a run that never aborts pays for
      stage 0 alone. Within a stage, slots are built in chunks that
      double from 8 slots up to 64 and then stay at 64: chunk 0 (slots
      0–7) together with the stage, every later chunk (slots 8–23,
      24–55, 56–119, 120–183, …, cut at [max_requests]) on the first
      lookup of one of its slots. A built stage or chunk is
      published by a compare-and-set on an OCaml [Atomic] cell: a
      host-level operation, not a simulated step. Domains racing to build
      it agree on one copy, and the loser drops its own. Objects of a
      fallback stage or of a chunk past the first therefore appear in the
      simulator mid-run, at the first switch into the stage or the first
      proposal to the chunk; since [Explore]'s partial-order reduction
      rejects objects allocated mid-run, POR exploration of a UC ends at
      slot 8. *)

  type 'i phandle

  val phandle : 'i t -> pid:int -> 'i phandle

  val invoke : 'i phandle -> 'i Request.t -> 'i History.t
  (** Run the request through the chain until some stage commits; returns
      that stage's local log ({!U.performed}, built in O(h)). Raises
      [Failure] if even the last stage aborts (impossible with a
      wait-free closing stage). {!Typed.apply} commits the same way but
      builds no list. *)

  val stage_of : 'i phandle -> int
  (** Index of the stage the process is currently using (0-based). *)

  val switch_lengths : 'i phandle -> int list
  (** Lengths of the abort histories this process transferred so far —
      the state-transfer cost of composition measured by experiment T5. *)

  module Typed : sig
    type ('q, 'i, 'r) obj

    val create : ('q, 'i, 'r) Spec.t -> 'i t -> ('q, 'i, 'r) obj

    type ('q, 'i, 'r) handle
    (** A process's {!phandle} plus its response cache: the spec state
        after the entries of the current stage's commit log evaluated so
        far, and the id and response of the request answered last. *)

    val handle : ('q, 'i, 'r) obj -> pid:int -> ('q, 'i, 'r) handle

    val phandle : ('q, 'i, 'r) handle -> 'i phandle
    (** The underlying chain handle ({!stage_of}, {!switch_lengths}). *)

    val apply : ('q, 'i, 'r) handle -> 'i Request.t -> 'r
    (** Commit the request and return its response, [β(h, m)] for the
        commit history [h]. The cache keeps a cursor into the stage's
        local log: only the entries from the cursor to the log's end,
        read by index ({!U.log_get}), go through the spec, and no copy
        of the log is made. After a stage switch the cache is rebuilt
        once from the new stage's log. Re-applying the request answered
        last (the crash-recovery path) returns the same response with no
        spec apply; re-applying an older committed request returns its
        response by replaying the log's prefix up to it. *)
  end
end
