(** The sharded universal-construction service.

    [shards] universal-construction objects (each the paper's composed
    chain, split > bakery > cas by default) serve a keyspace hash-
    partitioned into [buckets] buckets by a {!Router}. A client
    operation routes its key, applies on the owner shard, and — if the
    shard answers [Refused] (the bucket froze or moved under it) —
    re-reads the table and retries with a {e fresh} request id. The
    retry is sound precisely because a committed [Refused] certifies
    the attempt had no effect (see {!Kv}): the operation is applied at
    most once, under exactly one route, even across migrations.

    Retries are bounded: a client whose bucket stays frozen (a
    migrator crashed for good) eventually gives up, leaving its
    operation pending in the harness trace — which the linearizability
    checker already accounts for (a pending operation may or may not
    have taken effect). No operation is ever dropped silently or
    applied twice.

    {!Make.Migration} and {!Make.Batcher} are nested in the functor on
    purpose: one functor application shares the service's abstract
    types across the router, the migration state machine and the
    combining layer — re-applying [module type of] per unit would mint
    incompatible copies of them.

    {2 Crash recovery}

    The per-process handle records the current in-flight attempt
    [(shard, request)] — modelling the small durable per-process log a
    recoverable client keeps, like the harness of
    [Fuzz_run.recoverable_split]. On recovery {!Make.recover}
    re-proposes the {e same} request id on the {e same} shard: the
    universal construction deduplicates by id, so if the crashed
    attempt already committed this returns its original response (no
    second effect), and otherwise it commits now, once. Only a
    [Refused] outcome — proof of no effect — lets recovery fall back
    to the fresh-id retry loop. Re-proposing under a fresh id without
    that certificate would be unsound: the crashed attempt may have
    committed, and a duplicated [Put] is observable (docs/sharding.md
    works the counterexample). *)

module Make (P : Scs_prims.Prims_intf.S) : sig
  module R : module type of Router.Make (P)
  module Uc : module type of Scs_universal.Uc_object.Make (P)

  val default_stages :
    n:int -> (name:string -> slot:int -> 'a Scs_consensus.Consensus_intf.t) list
  (** The composed split > bakery > cas chain for [n] processes; slot
      [k] of the UC named [name] is [name.split[k]], [name.bakery[k]],
      [name.cas[k]]. *)

  type t

  val create :
    ?stages:
      (name:string -> slot:int -> Kv.req Scs_spec.Request.t Scs_consensus.Consensus_intf.t) list ->
    name:string ->
    n:int ->
    shards:int ->
    buckets:int ->
    capacity:int ->
    unit ->
    t
  (** [capacity] is each shard's [max_requests]; administrative
      requests (freeze/install) consume it too. [stages] defaults to
      [default_stages ~n]. *)

  val router : t -> R.t
  val shards : t -> int
  val buckets : t -> int

  type h

  val handle : t -> pid:int -> h

  type outcome = Done of Kv.resp | Gave_up

  val apply : ?retries:int -> h -> Kv.req -> outcome
  (** Client path (raises [Invalid_argument] on administrative
      requests): route, apply, retry on freeze/[Refused] with fresh
      ids; [retries] (default 64) bounds attempts, frozen-route waits
      included — each costs one [P.pause]. *)

  val apply_on : h -> shard:int -> Kv.req Scs_spec.Request.t -> Kv.resp
  (** Apply directly on a shard, bypassing the router — the
      migration/admin path, also the idempotent re-invocation path
      (request ids are deduplicated by the universal construction). *)

  val fresh_req : h -> Kv.req -> Kv.req Scs_spec.Request.t
  (** A pid-salted request id, unique across the service's handles. *)

  val inflight : h -> (int * Kv.req Scs_spec.Request.t) option
  (** The attempt to re-propose after a crash, if any. Cleared at the
      {e start} of the next [apply] — never when an attempt returns —
      so a crash between the shard committing and the caller recording
      the response still finds it. A non-[None] value after [apply]
      returned is therefore normal, not a leak. *)

  val recover : ?retries:int -> h -> outcome option
  (** Crash-recovery re-invocation as described above; [None] if no
      attempt was in flight (the caller may then safely re-run the
      operation afresh — nothing reached any shard). Idempotent: a
      crash of the recovery itself re-enters and gets the same
      answer. *)

  (** IronFleet-SHT-style bucket delegation, crash-recoverable.

      Moving bucket [b] from its owner [src] to shard [dst]:

      + write the durable descriptor, phase := [Freezing];
      + freeze [b] in the routing table (epoch bump: clients wait);
      + commit [Freeze b] on [src] — this {e is} the drain: every
        racing client op either committed before it (its effect is in
        the sealed pairs) or answers [Refused] after it — and durably
        record the sealed pairs, phase := [Installing];
      + commit [Install (b, pairs)] on [dst];
      + phase := [Rerouting], {e then} assign [b -> dst] in the table
        (epoch bump: clients re-route), phase := [Idle].

      Every step is idempotent given the phase register, so
      {!Migration.recover} simply resumes from the recorded phase:
      re-freezing seals the same pairs (nothing commits on a frozen
      bucket), and re-installing cannot clobber client writes because
      the table points at [dst] only {e after} the [Rerouting] phase
      is durably recorded — no client [Put] can reach [dst]'s copy of
      [b] while a re-install is still possible. The phase register is
      single-writer: one migration at a time (the harnesses' migrator
      process). *)
  module Migration : sig
    type svc := t

    type phase =
      | Idle
      | Freezing of { bucket : int; dst : int }
      | Installing of { bucket : int; dst : int; pairs : (int * int) list }
      | Rerouting of { bucket : int; dst : int }

    type t

    val create : name:string -> svc -> t
    val phase : t -> phase

    val migrate : t -> h:h -> bucket:int -> dst:int -> unit
    (** Run the protocol above through [h] (the migrator's handle).
        Raises [Invalid_argument] if a migration is already in flight
        or [dst]/[bucket] is out of range. Migrating a bucket onto its
        current owner is legal (freeze, reinstall in place,
        unfreeze). *)

    val recover : t -> h:h -> unit
    (** Resume an interrupted migration from its durable phase; no-op
        when [Idle]. Administrative requests are re-proposed under
        fresh ids — sound because [Freeze]/[Install] are idempotent in
        the shard spec, unlike client [Put]s. *)
  end

  (** Per-shard flat-combining operation queues — the native backend's
      batching layer, written against [P] like everything else so the
      simulator selfcheck covers it.

      A submitter pushes a cell onto its shard's Treiber stack and
      spins: if its mailbox holds its request's response it returns;
      otherwise it reads the shard's combiner lock and, only if the
      lock reads free, tries to take it (test-and-test-and-set). The
      winner drains the queue through its {e own} universal-construction
      handle — one process proposing a batch back-to-back, so the
      consensus fast path stays solo and the bakery/cas fallbacks stay
      cold — and re-grabs after each batch until the queue is empty or
      after [n] passes, so that cells pushed while it worked are served
      before it releases. It writes the answers only after releasing
      the lock: a served process cannot push again during the drain, so
      the combiner's own op returns after at most [n] cells, and the
      combiner, back at the queue first, usually keeps the role, which
      spares the served processes' UC handles most catch-up walks.
      Self-service on the spin path makes the scheme
      deadlock-free: a cell never waits on a combiner that is not
      running (the submitter becomes one). Route changes between
      submit and drain are caught by the combiner revalidating each
      cell's bucket; stale cells answer [Refused] and the submitter
      re-routes, exactly like the unbatched path.

      Each process has one volatile mailbox register, named
      [<name>.cell[<pid>]] and created by that process on its first
      submit. The combiner writes [Some (request id, response)]; the
      submitter waits for its current request's id, so the mailbox is
      never reset. Not crash-safe (the queues and mailboxes are
      volatile); the crash fuzz workloads drive the service
      directly. *)
  module Batcher : sig
    type svc := t
    type t

    val create : name:string -> svc -> t

    val apply : ?retries:int -> t -> h:h -> Kv.req -> outcome
    (** Same contract as {!val:apply}, through the combining layer. *)

    val batches : t -> int
    (** Non-empty queue grabs so far (harness-visible counter): one per
        pass of a combiner's drain. *)

    val batched_ops : t -> int
    (** Cells served across all drains; [batched_ops / batches] is the
        mean batch size. Equals {!refused_ops} plus the sum of
        {!served_ops} over the shards. *)

    val served_ops : t -> shard:int -> int
    (** Cells [shard]'s combiner answered with a result: one per client
        operation that returned [Done] through this shard. *)

    val refused_ops : t -> int
    (** Cells answered [Refused] (the bucket was frozen or had moved),
        each retried by its submitter. *)
  end
end
