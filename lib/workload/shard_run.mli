(** Fuzzing workloads for the sharded universal-construction service
    ({!Scs_shard}): clients route keyed [Get]/[Put] operations through
    the router while (in the migrating variants) one process delegates
    a bucket between shards mid-run — under every schedule policy,
    including crash and crash-recover policies fired mid-migration.

    Every workload records a {e client-level} trace (the service's
    outward face: keyed gets and puts; administrative freeze/install
    requests stay internal) and checks it two ways: per key with
    {!Scs_history.Linearize.check_partitioned} — the compositional
    oracle, sound because the keyspace spec is a product of independent
    per-key registers — and, on small histories, monolithically, with
    the verdicts required to agree (the compositionality theorem, Lin
    et al., made executable). An operation whose client gave up (bucket
    frozen by a migrator that crashed for good) stays pending, which
    the checker already models: a pending operation may or may not have
    taken effect.

    [sharded_kv_s1] is the differential-identity twin of [uc_kv]: the
    same op script through a 1-shard service vs. a bare
    universal-construction object, for the 1-shard identity gate in
    CI (same seeds, verdicts must agree — and test/test_shard.ml
    pins response-level identity under a deterministic schedule). *)

val sharded_kv : Workload_def.t
(** 2 shards, 4 buckets, no migration. *)

val sharded_kv_migrate : Workload_def.t
(** 2 shards, 4 buckets; the last process interleaves a full bucket
    delegation (freeze → seal → install → re-route) between its client
    operations, with recovery entry points installed for every process:
    clients re-invoke their in-flight operation (idempotent by request-id
    deduplication, with [Refused] as the no-effect certificate), the
    migrator resumes the delegation from its durable phase register. *)

val sharded_kv_s1 : Workload_def.t
(** 1 shard, 1 bucket — the sharded service degenerated to a single
    universal construction behind a router. *)

val uc_kv : Workload_def.t
(** The plain universal-construction keyspace object, no router. *)

val all : Workload_def.t list
